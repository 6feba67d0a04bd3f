/**
 * @file
 * Static-branch population statistics over a trace: execution counts,
 * taken rates, bias distribution. Feeds the Table 1 style benchmark
 * summaries and the "more than 99% biased" accounting in the paper's
 * sections 4.2 and 5.1.
 * Counts accumulate by static id into pc-sorted rows (util/pc_rows.hpp).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "trace/trace.hpp"
#include "util/pc_rows.hpp"

namespace copra::trace {

/** Aggregate behaviour of one static conditional branch. */
struct StaticBranchStats
{
    uint64_t pc = 0;
    uint64_t execs = 0;
    uint64_t taken = 0;

    /** Fraction of executions that were taken. */
    double takenRate() const
    {
        return execs ? static_cast<double>(taken) / execs : 0.0;
    }

    /**
     * Bias toward the predominant direction: max(taken, not-taken)/execs.
     * 1.0 means perfectly biased; 0.5 means an even split.
     */
    double
    bias() const
    {
        if (!execs)
            return 0.0;
        uint64_t majority = taken > execs - taken ? taken : execs - taken;
        return static_cast<double>(majority) / execs;
    }

    /**
     * Dynamic executions an ideal static predictor (per-branch majority
     * direction over the whole run, paper §4.1) gets right.
     */
    uint64_t
    idealStaticCorrect() const
    {
        return taken > execs - taken ? taken : execs - taken;
    }
};

/** Population statistics for the conditional branches of one trace. */
class TraceStats
{
  public:
    /** Analyze @p trace (conditional branches only). */
    explicit TraceStats(const Trace &trace);

    /** Number of distinct static conditional branches. */
    size_t staticBranches() const { return perBranch_.size(); }

    /** Total dynamic conditional branches. */
    uint64_t dynamicBranches() const { return dynamic_; }

    /** Dynamic conditional branches that were taken. */
    uint64_t dynamicTaken() const { return taken_; }

    /** Per-branch statistics, one row per branch in ascending pc order. */
    const PcRows<StaticBranchStats> &perBranch() const { return perBranch_; }

    /** Stats for a specific branch; execs == 0 if never seen. */
    StaticBranchStats branch(uint64_t pc) const;

    /**
     * Fraction of dynamic branches whose static branch has bias() strictly
     * greater than @p threshold (e.g., 0.99 reproduces the paper's "more
     * than 99% biased" bucket).
     */
    double dynamicFractionWithBiasAbove(double threshold) const;

    /**
     * Total dynamic executions an ideal static predictor would get right,
     * summed over branches.
     */
    uint64_t idealStaticCorrect() const;

  private:
    uint64_t dynamic_ = 0;
    uint64_t taken_ = 0;
    PcRows<StaticBranchStats> perBranch_;
};

} // namespace copra::trace

