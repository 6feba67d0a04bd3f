/**
 * @file
 * Differential state gates: the runtime half of the predictor state
 * contract (DESIGN.md §14).
 *
 * The copra_lint sema pass proves every member field is *declared*
 * state, config, or transient; these gates prove the declarations are
 * *honest*. For every factory-roster predictor over a set of fuzzed
 * traces:
 *
 *  - byte-stability: snapshot() is a pure function of state — two
 *    consecutive snapshots are byte-identical, cold and warm, and
 *    restoring a snapshot then re-snapshotting reproduces it exactly.
 *  - reset-replay: reset() really forgets — a reset predictor hashes
 *    identically to a cold one and replays the trace to the identical
 *    prediction stream and final hash (the determinism gate).
 *  - round-trip: a clone restored from a mid-trace snapshot finishes
 *    the trace in lockstep with the original — prediction-for-
 *    prediction and hash-for-hash. A divergence means some live state
 *    escaped snapshotState(): the snapshot-completeness probe.
 *  - cold-restore: a cold snapshot restores into a fresh instance
 *    without panicking and hashes identically.
 *
 * The gates need no reference models — each predictor is diffed
 * against itself across snapshot/restore/reset seams, so the whole
 * roster is covered, not just the pairs ref_models.hpp reimplements.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/differential.hpp"
#include "check/gate_report.hpp"

namespace copra::check {

/** One roster entry the gates run over. */
struct StatePredictor
{
    std::string spec; //!< factory spec, e.g. "pas:h=6,bht=5,s=3"
    PredictorFactory make;
};

/**
 * The default gate roster: every knownPredictors() family at
 * deliberately small geometries, for the same reason defaultCheckPairs
 * shrinks its tables — aliasing, allocation, and eviction paths must
 * actually run or the snapshots have nothing interesting to miss.
 */
std::vector<StatePredictor> defaultStateRoster();

/** Configuration of a state-gate campaign. */
struct StateGateOptions
{
    uint64_t seedBase = 900;      //!< first fuzz seed (inclusive)
    uint64_t traces = 8;          //!< fuzzed traces per roster entry
    uint64_t conditionals = 2000; //!< conditional branches per trace
};

/**
 * Run every gate over @p roster for the seed range of @p options.
 * Failures name the spec and one of the gates "byte-stability",
 * "reset-replay", "round-trip" or "cold-restore" (seed 0 for the cold
 * gates); print with formatGateReport("state gates", report).
 */
GateReport runStateGates(const StateGateOptions &options,
                         const std::vector<StatePredictor> &roster
                         = defaultStateRoster());

/**
 * docs/STATE_BUDGETS.md, regenerated: a markdown table of every
 * factory spec's stateBits() cold and after a fixed deterministic fuzz
 * warmup (the two differ exactly for the dynamically allocated
 * predictors). The state_budgets_doc_drift ctest gate holds the
 * committed file to this output.
 */
std::string renderStateBudgets();

} // namespace copra::check
