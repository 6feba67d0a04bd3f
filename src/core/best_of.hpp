/**
 * @file
 * Best-predictor accounting (paper §5): which predictor — global,
 * per-address, or ideal static — is best for each branch, weighted by
 * execution frequency (Figs. 7 and 8), and the per-branch accuracy
 * difference distribution between two predictors (Fig. 9).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "sim/ledger.hpp"
#include "util/percentiles.hpp"

namespace copra::core {

/**
 * Execution-weighted split of branches into {A best, B best, static
 * best}. Static absorbs ties against either dynamic predictor ("at
 * least equally well predicted", paper §5.1); between A and B, ties go
 * to A.
 */
struct BestOfSplit
{
    double fracA = 0.0;
    double fracB = 0.0;
    double fracStatic = 0.0;

    /**
     * Of the dynamic executions in the static bucket, the fraction whose
     * branch is more than 99% biased (the paper reports 83% for
     * gshare/PAs and 92% for the class-based comparison).
     */
    double staticBiasedFraction = 0.0;
};

/**
 * Compute the split. All three ledgers must cover the same trace
 * (identical per-pc execution counts).
 *
 * @param a First dynamic predictor's ledger (e.g. gshare).
 * @param b Second dynamic predictor's ledger (e.g. PAs).
 * @param static_ledger The ideal static ledger (idealStaticLedger()).
 * @param bias_threshold Bias level for staticBiasedFraction.
 */
BestOfSplit bestOfSplit(const sim::Ledger &a, const sim::Ledger &b,
                        const sim::Ledger &static_ledger,
                        double bias_threshold = 0.99);

/**
 * Per-branch accuracy difference distribution (paper Fig. 9): for every
 * static branch compute accuracy(a) - accuracy(b) in percentage points,
 * weight it by the branch's execution count, and expose the percentile
 * curve over dynamic branches.
 */
WeightedPercentiles accuracyDifference(const sim::Ledger &a,
                                       const sim::Ledger &b);

/**
 * Ledger whose per-branch correct counts are the ideal static
 * predictor's (majority direction), derived from any ledger covering the
 * trace — the taken counts are already in the tallies.
 */
sim::Ledger idealStaticLedger(const sim::Ledger &reference);

/** Per-branch max of two ledgers covering the same trace. */
inline sim::Ledger
maxLedger(const sim::Ledger &a, const sim::Ledger &b)
{
    return sim::bestPerBranchLedger({&a, &b});
}

} // namespace copra::core

