#include "predictor/fixed_pattern.hpp"

#include <algorithm>

namespace copra::predictor {

void
FixedPatternBank::observe(uint32_t id, bool taken) noexcept
{
    BranchCounts &bc = table_[id];
    // Bit k-1 of `agree` says whether the outcome k ago matches
    // `taken`. Before k outcomes are recorded (k > count) the predictor
    // for k says taken, so that bit agrees iff `taken`.
    const uint32_t known =
        bc.ring.count >= kMaxK ? ~0u : (1u << bc.ring.count) - 1;
    const uint32_t agree = ((taken ? bc.ring.bits : ~bc.ring.bits) & known) |
        (taken ? ~known : 0u);
    for (unsigned k = 0; k < kMaxK; ++k)
        bc.correct[k] += (agree >> k) & 1u;
    bc.ring.push(taken);
    ++bc.execs;
}

uint64_t
FixedPatternBank::bestCorrect(uint32_t id) const
{
    const std::array<uint64_t, kMaxK> &correct = table_[id].correct;
    return *std::max_element(correct.begin(), correct.end());
}

unsigned
FixedPatternBank::bestK(uint32_t id) const
{
    const std::array<uint64_t, kMaxK> &correct = table_[id].correct;
    return static_cast<unsigned>(
        std::max_element(correct.begin(), correct.end()) - correct.begin()) + 1;
}

} // namespace copra::predictor
