/**
 * @file
 * Per-branch accuracy ledger. Every analysis in the paper is a statement
 * about *per-static-branch* accuracy — which predictor is best for which
 * branch — so the driver records correct/total per branch, and the core
 * analyses combine ledgers (best-of, hypothetical hybrids, percentile
 * curves). A ledger is built once from pc-sorted rows (util/pc_rows.hpp)
 * and never mutated; ledgers over one trace join row for row.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/pc_rows.hpp"

namespace copra::sim {

/** Per-branch prediction accounting. */
struct BranchTally
{
    uint64_t execs = 0;
    uint64_t correct = 0;
    uint64_t taken = 0;

    /** Accuracy in [0, 1]; 0 for never-executed branches. */
    double
    accuracy() const
    {
        return execs ? static_cast<double>(correct) / execs : 0.0;
    }
};

/** Accuracy ledger over all static conditional branches of one run. */
class Ledger
{
  public:
    /** An empty ledger. */
    Ledger() = default;

    /** Adopt @p rows in any order; panics if a pc repeats. */
    explicit Ledger(PcRows<BranchTally> rows) : rows_(std::move(rows))
    {
        sortRowsByPc(rows_, "Ledger: duplicate pc");
    }

    /** Total dynamic branches recorded. */
    uint64_t dynamic() const;

    /** Total correct predictions recorded. */
    uint64_t correct() const;

    /** Overall accuracy as a percentage (NaN — "n/a" — if empty). */
    double accuracyPercent() const;

    /** Tally for @p pc (zero tally if never recorded). */
    BranchTally branch(uint64_t pc) const;

    /** One row per static branch, in ascending pc order. */
    const PcRows<BranchTally> &table() const { return rows_; }

    /** Number of distinct static branches. */
    size_t staticBranches() const { return rows_.size(); }

  private:
    PcRows<BranchTally> rows_;
};

/**
 * The ledger of any per-branch rows carrying execs and taken counts,
 * scoring @p correct(value) correct predictions for each branch.
 */
template <typename T, typename Correct>
Ledger
ledgerOf(const PcRows<T> &rows, Correct correct)
{
    PcRows<BranchTally> tallies;
    tallies.reserve(rows.size());
    for (const auto &[pc, value] : rows)
        tallies.emplace_back(
            pc, BranchTally{value.execs, correct(value), value.taken});
    return Ledger(std::move(tallies));
}

/**
 * Per-branch best of @p ledgers: each branch's tally from the ledger
 * with the most correct executions (the earliest on ties). Realizes the
 * paper's hypothetical predictors ("gshare w/ Corr", "PAs w/ Loop") and
 * the best-of distributions of §5. All ledgers must cover the same trace.
 */
Ledger bestPerBranchLedger(const std::vector<const Ledger *> &ledgers);

/** Overall accuracy (%) of the per-branch best of @p a and @p b. */
double bestOfAccuracyPercent(const Ledger &a, const Ledger &b);

} // namespace copra::sim
