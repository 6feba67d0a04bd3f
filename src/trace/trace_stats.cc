#include "trace/trace_stats.hpp"

namespace copra::trace {

TraceStats::TraceStats(const Trace &trace)
{
    const SoABlocks &soa = trace.soa();
    std::vector<StaticBranchStats> table(soa.staticCount());
    for (const SoABlocks::Segment &seg : soa.conditionalSegments()) {
        for (size_t i = seg.begin; i < seg.begin + seg.count; ++i) {
            StaticBranchStats &entry = table[soa.staticIndex()[i]];
            entry.pc = soa.pc()[i];
            ++entry.execs;
            entry.taken += soa.taken()[i];
            taken_ += soa.taken()[i];
        }
    }
    dynamic_ = soa.conditionalCount();
    perBranch_ = rowsFromIds(
        soa.staticPcs(), table,
        [](const StaticBranchStats &stats) { return stats.execs != 0; });
}

StaticBranchStats
TraceStats::branch(uint64_t pc) const
{
    const StaticBranchStats *stats = findRow(perBranch_, pc);
    return stats ? *stats : StaticBranchStats{pc, 0, 0};
}

double
TraceStats::dynamicFractionWithBiasAbove(double threshold) const
{
    if (dynamic_ == 0)
        return 0.0;
    uint64_t covered = 0;
    for (const auto &[pc, stats] : perBranch_)
        if (stats.bias() > threshold)
            covered += stats.execs;
    return static_cast<double>(covered) / static_cast<double>(dynamic_);
}

uint64_t
TraceStats::idealStaticCorrect() const
{
    uint64_t correct = 0;
    for (const auto &[pc, stats] : perBranch_)
        correct += stats.idealStaticCorrect();
    return correct;
}

} // namespace copra::trace
