/**
 * @file
 * The selective-history oracle's record phase, checked.
 *
 * core::recordStates answers each mined candidate by walking one static
 * id's occurrence chain in a RecordWindow. The reference here is the
 * record phase as first written: per conditional, list every tagged
 * instance in the window (HistoryWindow::collect) and look each one up
 * in the branch's candidate index. The differential campaign replays
 * fuzzed traces through both, at window depths 1, 16 and 64 and under
 * every TagFilter, and diffs the candidate pools and every packed row.
 * A divergent trace is shrunk with the same delta-debugging minimizer
 * the predictor pairs use (check/differential.hpp).
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "check/differential.hpp"
#include "core/oracle.hpp"
#include "trace/trace.hpp"

namespace copra::check {

/** A record phase under test: one RecordedBranch per static id. */
using RecordFn = std::function<std::vector<core::RecordedBranch>(
    const trace::SoABlocks &, const core::CandidateMiner &,
    const core::OracleConfig &)>;

/**
 * The collect-and-probe record phase: for every conditional, collect
 * the window's tagged instances and set the 2-bit field of each one
 * that is among the branch's candidates (a 32-slot open-addressed index
 * by packed tag). O(n) per row plus up to 2n probes.
 */
std::vector<core::RecordedBranch>
referenceRecordStates(const trace::SoABlocks &soa,
                      const core::CandidateMiner &miner,
                      const core::OracleConfig &config);

/** Display label of a record configuration, e.g. "depth=16,both". */
std::string recordConfigLabel(const core::OracleConfig &config);

/**
 * The configurations a record campaign covers: window depths 1, 16 and
 * 64, each under the Both, OccurrenceOnly and BackwardOnly filters.
 */
std::vector<core::OracleConfig> recordCheckConfigs();

/**
 * An adversarial trace for the record phase, built from three episode
 * kinds over a small pc pool:
 *  - tight self-loops of 1..80 iterations, so one branch fills the
 *    window and its occurrence chain runs past the oldest entry;
 *  - a branch, then 253..257 backward jumps, then a branch that copies
 *    its outcome, so method-B distances land at and just past 0xff;
 *  - a random mix of conditionals in both directions, forward and
 *    backward jumps, calls and returns.
 */
trace::Trace recordFuzzTrace(uint64_t seed, uint64_t conditionals);

/**
 * Mine @p trace at @p config's depth, run @p record and the reference
 * on the same miner and compare every branch's candidates and rows.
 * Returns the first divergence, in static-id order, as an aggregate
 * Mismatch whose detail names the branch, row and field; ok() when
 * none.
 */
DiffResult diffRecord(const trace::Trace &trace,
                      const core::OracleConfig &config,
                      const RecordFn &record);

/**
 * Replay recordFuzzTrace(seed) for the seed range of @p options under
 * every recordCheckConfigs() entry. A failure's pair is
 * "oracle-record(<label>)" and its reproducer is minimized when
 * options.minimize is set.
 */
SuiteReport runRecordSuite(const SuiteOptions &options,
                           const RecordFn &record);

/**
 * The record phase with @p bug planted (only bugs that live in the
 * record phase; see InjectedBug::OracleRecordLinkOffByOne).
 */
RecordFn injectedRecord(InjectedBug bug);

/**
 * Run the campaign that owns @p bug: the record differential for a
 * record-phase bug, the predictor suite over injectedBugPair(bug) for
 * every other.
 */
SuiteReport runInjectedSuite(const SuiteOptions &options, InjectedBug bug);

} // namespace copra::check
