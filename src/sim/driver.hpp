/**
 * @file
 * The trace-driven simulation driver: runs one or more predictors over a
 * trace, producing aggregate results and per-branch ledgers. Every
 * conditional branch is predicted, each maximal run of them in one call
 * to the predictor's single batch entry point (predictUpdateSoa) over
 * the trace's columns; other control transfers go to observe() (they
 * exist for path/backward bookkeeping in the analyses).
 *
 * Concurrency contract (DESIGN.md §10): the driver holds no shared
 * mutable state of its own. A run() owns its predictor, result and
 * ledger outright and reads the trace strictly read-only (its column
 * store has no lazily built state, so reading it takes no lock), so
 * callers may shard run() calls across a pool by predictor or by
 * trace. There is deliberately nothing here for a mutex to guard; the
 * statically checked locking discipline lives in the pool
 * (util/thread_pool.hpp) and the bench timing accumulator
 * (bench_common.hpp) that feed this layer.
 */

#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "predictor/predictor.hpp"
#include "sim/ledger.hpp"
#include "trace/trace.hpp"
#include "trace/trace_soa.hpp"
#include "util/hot.hpp"

namespace copra::sim {

/** Aggregate outcome of one predictor over one trace. */
struct RunResult
{
    std::string predictorName;
    uint64_t dynamicBranches = 0;
    uint64_t correct = 0;

    /**
     * True when the trace held at least one conditional branch, i.e.
     * accuracy is a meaningful number. A run over an all-non-conditional
     * trace predicted nothing; reporting it as 0% would read as "every
     * prediction wrong", so accuracyPercent() is NaN instead and
     * consumers print "n/a" (and oracle selection skips the result).
     */
    bool defined() const { return dynamicBranches != 0; }

    /** Prediction accuracy as a percentage; NaN when !defined(). */
    double
    accuracyPercent() const
    {
        if (dynamicBranches == 0)
            return std::numeric_limits<double>::quiet_NaN();
        return 100.0 * static_cast<double>(correct)
            / static_cast<double>(dynamicBranches);
    }

    /** Misprediction rate as a percentage; NaN when !defined(). */
    double mispredictPercent() const { return 100.0 - accuracyPercent(); }
};

/**
 * Run @p pred over @p trace.
 *
 * @param ledger Optional per-branch accounting sink (overwritten).
 */
RunResult run(const trace::Trace &trace, predictor::Predictor &pred,
              Ledger *ledger = nullptr);

/** Totals produced by one runLoop pass. */
struct LoopTotals
{
    uint64_t correct = 0;
    uint64_t branches = 0;
};

/**
 * The steady-state inner loop of run(): stream every conditional
 * segment of a trace's column store through the predictor's batch
 * entry point, delivering non-conditional records to observe() in
 * trace order, and — when @p packed is non-null — fold one packed
 * execs/taken/correct word per branch into the ledger accumulators.
 *
 * This is a COPRA_HOT root: between the buffers being handed in and
 * the totals coming back it allocates nothing, takes no locks, and
 * cannot throw (DESIGN.md §15). All buffers are caller-owned: @p
 * correct_scratch must hold the largest segment's count when @p packed
 * is used (it always may be written), and @p packed / @p tallies must
 * hold soa.staticCount() entries or be null together. `copra_check
 * --hot-gates` replays this exact function under the counting
 * allocator and lock counter to prove the claim at runtime.
 */
COPRA_HOT LoopTotals
runLoop(const trace::SoABlocks &soa, predictor::Predictor &pred,
        uint8_t *correct_scratch, uint64_t *packed,
        BranchTally *tallies) noexcept;

/**
 * Scratch sizing for runLoop: the longest conditional segment of
 * @p soa (the correct_scratch length a ledger pass needs).
 */
size_t maxSegmentCount(const trace::SoABlocks &soa);

} // namespace copra::sim

