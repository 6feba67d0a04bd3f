#include "predictor/fixed_pattern.hpp"

#include <algorithm>

namespace copra::predictor {

void
FixedPatternBank::observe(uint64_t pc, bool taken) noexcept
{
    BranchCounts &bc = table_[pc];
    for (unsigned k = 1; k <= kMaxK; ++k)
        if (bc.ring.kAgo(k) == taken)
            ++bc.correct[k - 1];
    bc.ring.push(taken);
    ++bc.execs;
}

uint64_t
FixedPatternBank::bestCorrect(uint64_t pc) const
{
    auto it = table_.find(pc);
    if (it == table_.end())
        return 0;
    uint64_t best = 0;
    for (uint64_t c : it->second.correct)
        best = std::max(best, c);
    return best;
}

unsigned
FixedPatternBank::bestK(uint64_t pc) const
{
    auto it = table_.find(pc);
    if (it == table_.end())
        return 1;
    unsigned best_k = 1;
    uint64_t best = 0;
    for (unsigned k = 1; k <= kMaxK; ++k) {
        uint64_t c = it->second.correct[k - 1];
        if (c > best) {
            best = c;
            best_k = k;
        }
    }
    return best_k;
}

} // namespace copra::predictor
