/**
 * @file
 * The selective-history oracle's mine, record and select phases,
 * checked.
 *
 * core::CandidateMiner and core::recordStates work per distinct
 * window of a core::WindowWalk. The references here are both phases
 * as first written, per conditional: list every tagged instance in the
 * window (HistoryWindow::collect), then probe each one in the branch's
 * tag table (mine) or candidate index (record). Greedy selection scores
 * runs of interned rows with bit-sliced counters; its reference scores
 * one candidate subset at a time through replayScore. The differential
 * campaign replays fuzzed traces through both sides: mine at window
 * depths 1, 16 and 64 and at the default and a small tag cap, tag for
 * tag with `capped`; record at the same depths under every TagFilter,
 * candidate pool and packed row for row; select under the same
 * configurations, greedy picks and correct counts per size. A
 * divergent trace is shrunk with the same delta-debugging minimizer
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

/** A mine phase under test: the miner after mining under the config. */
using MineFn = std::function<core::CandidateMiner(
    const trace::Trace &, const core::OracleConfig &)>;

/** A record phase under test: one RecordedBranch per static id. */
using RecordFn = std::function<std::vector<core::RecordedBranch>(
    const trace::SoABlocks &, const core::CandidateMiner &,
    const core::OracleConfig &)>;

/** A select phase under test: greedy selection over one branch. */
using SelectFn = std::function<core::GreedySelection(
    const std::vector<uint32_t> &rows, unsigned k, unsigned max_select)>;

/** The oracle phases a campaign checks; an empty one is skipped. */
struct OraclePhases
{
    MineFn mine;
    RecordFn record;
    SelectFn select;
};

/**
 * The phases as the oracle runs them: mine and record over one
 * core::WindowWalk, select by SelectiveOracle::greedySelect.
 */
OraclePhases oraclePhases();

/**
 * The collect-and-probe mine phase: for every conditional of the
 * prefix, collect the window's tagged instances and charge each one in
 * the branch's tag table, admitting new tags while the table is below
 * config.perBranchTagCap. One BranchCandidates per static id.
 */
std::vector<core::BranchCandidates>
referenceMine(const trace::Trace &trace, const core::OracleConfig &config);

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

/**
 * Greedy selection scored one candidate subset at a time: for sizes
 * 1..@p max_select, replayScore() every one-candidate extension of the
 * previous size's set and keep the best, ties to the lowest index.
 * K + (K-1) + (K-2) replays of every row.
 */
core::GreedySelection referenceGreedySelect(const std::vector<uint32_t> &rows,
                                            unsigned k, unsigned max_select);

/** Display label of a record configuration, e.g. "depth=16,both". */
std::string recordConfigLabel(const core::OracleConfig &config);

/** Display label of a mine configuration, e.g. "depth=16,cap=24". */
std::string mineConfigLabel(const core::OracleConfig &config);

/**
 * The configurations a record campaign covers: window depths 1, 16 and
 * 64, each under the Both, OccurrenceOnly and BackwardOnly filters.
 */
std::vector<core::OracleConfig> recordCheckConfigs();

/**
 * The configurations a mine campaign covers: window depths 1, 16 and
 * 64, each at the default tag cap and at a cap of 24, small enough that
 * first-seen admission decides which tags a busy branch keeps.
 */
std::vector<core::OracleConfig> mineCheckConfigs();

/**
 * An adversarial trace for the oracle phases, built from three episode
 * kinds over a small pc pool:
 *  - tight self-loops of 1..80 iterations, so one branch fills the
 *    window and its occurrences run past the oldest entry;
 *  - a branch, then 253..257 backward jumps, then a branch that copies
 *    its outcome, so method-B distances land at and just past 0xff;
 *  - a random mix of conditionals in both directions, forward and
 *    backward jumps, calls and returns.
 */
trace::Trace recordFuzzTrace(uint64_t seed, uint64_t conditionals);

/**
 * Mine @p trace with @p mine and with referenceMine() under @p config
 * and compare, per static branch, the execution counts, `capped` and
 * every tag's contingency. Returns the first divergence, in static-id
 * order, as an aggregate Mismatch whose detail names the branch and
 * the tag; ok() when none.
 */
DiffResult diffMine(const trace::Trace &trace,
                    const core::OracleConfig &config, const MineFn &mine);

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
 * Mine and record @p trace under @p config as the oracle does, then
 * run @p select and referenceGreedySelect() over every branch's rows
 * and compare the picks and correct counts of every size. Returns the
 * first divergence, in static-id order, as an aggregate Mismatch whose
 * detail names the branch and the size; ok() when none.
 */
DiffResult diffSelect(const trace::Trace &trace,
                      const core::OracleConfig &config,
                      const SelectFn &select);

/**
 * Replay recordFuzzTrace(seed) for the seed range of @p options through
 * every phase @p phases holds: mine under every mineCheckConfigs()
 * entry (pair "oracle-mine(<label>)"), record and select under every
 * recordCheckConfigs() entry ("oracle-record(<label>)",
 * "oracle-select(<label>)"). When options.minimize is set, each
 * pair's first failure is shrunk (SuiteFailure::shrunk).
 */
SuiteReport runOracleSuite(const SuiteOptions &options,
                           const OraclePhases &phases);

/**
 * The oracle phases @p bug lives in, with it planted, and no other
 * phase (only bugs that live in the oracle; see
 * InjectedBug::OracleWindowBack255 and OracleSelectRunShort).
 */
OraclePhases injectedOracle(InjectedBug bug);

/**
 * Run the campaign that owns @p bug: the oracle differentials for an
 * oracle bug, the predictor suite over injectedBugPair(bug) for every
 * other.
 */
SuiteReport runInjectedSuite(const SuiteOptions &options, InjectedBug bug);

} // namespace copra::check
