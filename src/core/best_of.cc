#include "core/best_of.hpp"

#include <algorithm>

namespace copra::core {

BestOfSplit
bestOfSplit(const sim::Ledger &a, const sim::Ledger &b,
            const sim::Ledger &static_ledger, double bias_threshold)
{
    const char *mismatch = "bestOfSplit: ledgers cover different traces";
    requireAligned(a.table(), b.table(), mismatch);
    requireAligned(a.table(), static_ledger.table(), mismatch);

    uint64_t total = 0;
    uint64_t execs_a = 0;
    uint64_t execs_b = 0;
    uint64_t execs_static = 0;
    uint64_t static_biased = 0;

    for (size_t i = 0; i < a.table().size(); ++i) {
        const sim::BranchTally &ta = a.table()[i].second;
        const sim::BranchTally &tb = b.table()[i].second;
        const sim::BranchTally &ts = static_ledger.table()[i].second;
        total += ta.execs;

        uint64_t best_dynamic = std::max(ta.correct, tb.correct);
        if (ts.correct >= best_dynamic) {
            execs_static += ta.execs;
            double bias = ta.execs
                ? static_cast<double>(ts.correct) / ta.execs : 0.0;
            if (bias > bias_threshold)
                static_biased += ta.execs;
        } else if (ta.correct >= tb.correct) {
            execs_a += ta.execs;
        } else {
            execs_b += ta.execs;
        }
    }

    BestOfSplit split;
    if (total == 0)
        return split;
    split.fracA = static_cast<double>(execs_a) / total;
    split.fracB = static_cast<double>(execs_b) / total;
    split.fracStatic = static_cast<double>(execs_static) / total;
    split.staticBiasedFraction = execs_static
        ? static_cast<double>(static_biased) / execs_static : 0.0;
    return split;
}

WeightedPercentiles
accuracyDifference(const sim::Ledger &a, const sim::Ledger &b)
{
    requireAligned(a.table(), b.table(),
                   "accuracyDifference: ledgers cover different traces");
    WeightedPercentiles percentiles;
    for (size_t i = 0; i < a.table().size(); ++i) {
        const sim::BranchTally &ta = a.table()[i].second;
        if (ta.execs == 0)
            continue;
        double diff =
            100.0 * (ta.accuracy() - b.table()[i].second.accuracy());
        percentiles.add(diff, ta.execs);
    }
    return percentiles;
}

sim::Ledger
idealStaticLedger(const sim::Ledger &reference)
{
    return sim::ledgerOf(reference.table(), [](const sim::BranchTally &t) {
        return std::max(t.taken, t.execs - t.taken);
    });
}

} // namespace copra::core
