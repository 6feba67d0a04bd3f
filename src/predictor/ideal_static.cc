#include "predictor/ideal_static.hpp"

namespace copra::predictor {

IdealStatic::IdealStatic(std::unordered_map<uint64_t, bool> majority)
    : majority_(std::move(majority))
{
}

IdealStatic
IdealStatic::fromTrace(const trace::Trace &trace)
{
    struct Counts
    {
        uint64_t taken = 0;
        uint64_t total = 0;
    };
    std::unordered_map<uint64_t, Counts> counts;
    for (const auto &rec : trace.records()) {
        if (!rec.isConditional())
            continue;
        auto &c = counts[rec.pc];
        ++c.total;
        if (rec.taken)
            ++c.taken;
    }
    std::unordered_map<uint64_t, bool> majority;
    majority.reserve(counts.size());
    // copra-lint: allow(unordered-iter) -- per-key transform into a keyed container; no cross-key order dependence
    for (const auto &[pc, c] : counts)
        majority[pc] = 2 * c.taken >= c.total;
    return IdealStatic(std::move(majority));
}

bool
IdealStatic::step(const trace::BranchRecord &br, bool) noexcept
{
    auto it = majority_.find(br.pc);
    return it == majority_.end() ? true : it->second;
}

} // namespace copra::predictor
