/**
 * The oracle-phase differentials: core::CandidateMiner and
 * core::recordStates against the collect-and-probe references, and
 * greedy selection against the one-subset-at-a-time replay
 * (check/record_check.hpp), over fuzzed traces at window depths 1, 16
 * and 64, plus proof that the fuzzed traces reach the edges the window
 * walk and the run scorer have to get right, that the planted
 * window-id defect is caught and shrunk by both mine and record, that
 * the planted run-step defect is caught and shrunk by select, and that
 * a campaign shrinks only each pair's first failure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "check/record_check.hpp"
#include "core/candidates.hpp"

namespace copra::check {
namespace {

using core::OracleConfig;
using core::RecordedBranch;
using core::TagMethod;
using core::TagOutcome;

TEST(RecordCheck, ConfigsCoverEveryDepthAndFilter)
{
    std::set<std::pair<unsigned, OracleConfig::TagFilter>> seen;
    for (const OracleConfig &config : recordCheckConfigs())
        seen.emplace(config.historyDepth, config.tagFilter);
    for (unsigned depth : {1u, 16u, 64u}) {
        for (OracleConfig::TagFilter filter :
             {OracleConfig::TagFilter::Both,
              OracleConfig::TagFilter::OccurrenceOnly,
              OracleConfig::TagFilter::BackwardOnly})
            EXPECT_TRUE(seen.count({depth, filter}))
                << "depth " << depth << " filter " << int(filter);
    }
}

TEST(RecordCheck, MineConfigsCoverEveryDepthAndCap)
{
    std::set<std::pair<unsigned, size_t>> seen;
    for (const OracleConfig &config : mineCheckConfigs())
        seen.emplace(config.historyDepth, config.perBranchTagCap);
    for (unsigned depth : {1u, 16u, 64u}) {
        EXPECT_TRUE(seen.count({depth, OracleConfig{}.perBranchTagCap}))
            << "depth " << depth;
        EXPECT_TRUE(seen.count({depth, 24})) << "depth " << depth;
    }
}

TEST(RecordCheck, OraclePhasesMatchReferencesOnFuzzedTraces)
{
    SuiteOptions options;
    options.seedBase = 1;
    options.traces = 30;
    options.conditionals = 3000;
    SuiteReport report = runOracleSuite(options, oraclePhases());
    EXPECT_EQ(report.tracesRun, 30u);
    EXPECT_EQ(report.comparisons,
              30u * (mineCheckConfigs().size() +
                     2 * recordCheckConfigs().size()));
    EXPECT_TRUE(report.ok()) << formatReport(report);
}

TEST(RecordCheck, EachPhaseRunsAlone)
{
    SuiteOptions options;
    options.seedBase = 1;
    options.traces = 2;
    options.conditionals = 500;
    OraclePhases mine_only = oraclePhases();
    mine_only.record = nullptr;
    mine_only.select = nullptr;
    EXPECT_EQ(runOracleSuite(options, mine_only).comparisons,
              2u * mineCheckConfigs().size());
    OraclePhases record_only = oraclePhases();
    record_only.mine = nullptr;
    record_only.select = nullptr;
    EXPECT_EQ(runOracleSuite(options, record_only).comparisons,
              2u * recordCheckConfigs().size());
    OraclePhases select_only = oraclePhases();
    select_only.mine = nullptr;
    select_only.record = nullptr;
    EXPECT_EQ(runOracleSuite(options, select_only).comparisons,
              2u * recordCheckConfigs().size());
}

TEST(RecordCheck, FuzzedTracesReachTheWalkEdges)
{
    // The window walk has four edges the references handle implicitly:
    // a method-B candidate near the 0xff limit, both in the path (its
    // distance hit) and out of it (the distance went one past); a
    // deeper method-A instance in the path; a branch that runs more
    // than the deepest window's worth of times in a row, so its
    // occurrences outlive the window; and a branch with more distinct
    // tags than the small cap, so first-seen admission decides.
    uint64_t b_edge_in = 0;
    uint64_t b_edge_out = 0;
    uint64_t a_deep_in = 0;
    uint64_t longest_run = 0;
    uint64_t capped = 0;
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        trace::Trace trace = recordFuzzTrace(seed, 3000);
        const trace::SoABlocks &soa = trace.soa();
        uint64_t run = 0;
        uint32_t last = UINT32_MAX;
        for (size_t i = 0; i < soa.size(); ++i) {
            if (!soa.record(i).isConditional())
                continue;
            run = soa.staticIndex()[i] == last ? run + 1 : 1;
            last = soa.staticIndex()[i];
            longest_run = std::max(longest_run, run);
        }
        OracleConfig config;
        config.historyDepth = 16;
        config.perBranchTagCap = 24;
        for (const core::BranchCandidates &bc : referenceMine(trace, config))
            capped += bc.capped;
        config.perBranchTagCap = OracleConfig{}.perBranchTagCap;
        core::CandidateMiner miner(config.historyDepth);
        miner.mine(trace);
        for (const RecordedBranch &branch :
             referenceRecordStates(soa, miner, config)) {
            for (size_t c = 0; c < branch.candidates.size(); ++c) {
                const core::Tag &tag = branch.candidates[c];
                bool b_edge = tag.method() == TagMethod::BackwardCount &&
                    tag.num() >= 0xfe;
                bool a_deep = tag.method() == TagMethod::Occurrence &&
                    tag.num() >= 2;
                for (uint32_t row : branch.rows) {
                    auto state =
                        static_cast<TagOutcome>((row >> (2 * c)) & 3u);
                    bool in_path = state != TagOutcome::NotInPath;
                    b_edge_in += b_edge && in_path;
                    b_edge_out += b_edge && !in_path;
                    a_deep_in += a_deep && in_path;
                }
            }
        }
    }
    EXPECT_GT(b_edge_in, 0u);
    EXPECT_GT(b_edge_out, 0u);
    EXPECT_GT(a_deep_in, 0u);
    EXPECT_GT(longest_run, 64u);
    EXPECT_GT(capped, 0u);
}

TEST(RecordCheck, WindowBack255IsCaughtAndShrunkByBothPhases)
{
    SuiteOptions options;
    options.seedBase = 1;
    options.traces = 4;
    options.conditionals = 1000;
    const OraclePhases buggy =
        injectedOracle(InjectedBug::OracleWindowBack255);
    SuiteReport report = runOracleSuite(options, buggy);
    ASSERT_FALSE(report.ok()) << "planted window-id bug was not caught";
    std::set<std::string> paths;
    for (const SuiteFailure &failure : report.failures) {
        paths.insert(failure.first.path);
        EXPECT_GT(failure.reproducer.size(), 0u);
        if (failure.shrunk) {
            EXPECT_LE(failure.reproducer.size(), 1000u) << failure.pair;
        }
        // The reproducer still fails under the same configuration.
        bool still_fails = false;
        for (const OracleConfig &config : mineCheckConfigs()) {
            if (failure.pair == "oracle-mine(" + mineConfigLabel(config) +
                    ")")
                still_fails = !diffMine(failure.reproducer, config,
                                        buggy.mine)
                                   .ok();
        }
        for (const OracleConfig &config : recordCheckConfigs()) {
            if (failure.pair == "oracle-record(" +
                    recordConfigLabel(config) + ")")
                still_fails = !diffRecord(failure.reproducer, config,
                                          buggy.record)
                                   .ok();
        }
        EXPECT_TRUE(still_fails) << failure.pair;
    }
    EXPECT_TRUE(paths.count("mine")) << "mine missed the bug";
    EXPECT_TRUE(paths.count("record")) << "record missed the bug";
}

TEST(RecordCheck, FuzzedRowsHoldRunsPastSaturation)
{
    // The run scorer's edge: runs of three or more identical rows, the
    // length at which a 2-bit counter saturates, and runs of one and
    // two, which stop short of it.
    std::array<uint64_t, 4> runs{}; // by min(length, 3); [0] unused
    OracleConfig config;
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        trace::Trace trace = recordFuzzTrace(seed, 1000);
        core::CandidateMiner miner(config.historyDepth);
        miner.mine(trace);
        core::WindowWalk walk(trace.soa(), config.historyDepth);
        for (const RecordedBranch &branch :
             core::recordStates(walk, miner, config)) {
            for (size_t r = 0; r < branch.rows.size();) {
                size_t end = r + 1;
                while (end < branch.rows.size() &&
                       branch.rows[end] == branch.rows[r])
                    ++end;
                ++runs[std::min<size_t>(end - r, 3)];
                r = end;
            }
        }
    }
    EXPECT_GT(runs[1], 0u);
    EXPECT_GT(runs[2], 0u);
    EXPECT_GT(runs[3], 0u);
}

TEST(RecordCheck, SelectRunShortIsCaughtAndShrunk)
{
    SuiteOptions options;
    options.seedBase = 1;
    options.traces = 4;
    options.conditionals = 1000;
    const OraclePhases buggy =
        injectedOracle(InjectedBug::OracleSelectRunShort);
    EXPECT_FALSE(buggy.mine);
    EXPECT_FALSE(buggy.record);
    SuiteReport report = runOracleSuite(options, buggy);
    ASSERT_FALSE(report.ok()) << "planted run-step bug was not caught";
    for (const SuiteFailure &failure : report.failures) {
        EXPECT_EQ(failure.first.path, "select");
        EXPECT_GT(failure.reproducer.size(), 0u);
        if (failure.shrunk) {
            EXPECT_LE(failure.reproducer.size(), 1000u) << failure.pair;
        }
        // The reproducer still fails under the same configuration, and
        // the shipped scorer passes on it.
        bool still_fails = false;
        for (const OracleConfig &config : recordCheckConfigs()) {
            if (failure.pair != "oracle-select(" +
                    recordConfigLabel(config) + ")")
                continue;
            still_fails =
                !diffSelect(failure.reproducer, config, buggy.select).ok();
            EXPECT_TRUE(diffSelect(failure.reproducer, config,
                                   oraclePhases().select)
                            .ok());
        }
        EXPECT_TRUE(still_fails) << failure.pair;
    }
}

TEST(RecordCheck, OnlyEachPairsFirstFailureIsShrunk)
{
    // Shrinking replays a pair hundreds of times per failing trace, and
    // a reader needs one reproducer per bug: a pair's later failures
    // keep their seed, first mismatch and unshrunk trace.
    SuiteOptions options;
    options.seedBase = 1;
    options.traces = 4;
    options.conditionals = 1000;
    SuiteReport report = runOracleSuite(
        options, injectedOracle(InjectedBug::OracleSelectRunShort));
    std::map<std::string, std::vector<const SuiteFailure *>> by_pair;
    for (const SuiteFailure &failure : report.failures)
        by_pair[failure.pair].push_back(&failure);
    size_t most = 0;
    for (const auto &[pair, failures] : by_pair) {
        most = std::max(most, failures.size());
        ASSERT_TRUE(failures.front()->shrunk) << pair;
        const size_t original =
            recordFuzzTrace(failures.front()->seed, options.conditionals)
                .size();
        EXPECT_LT(failures.front()->reproducer.size(), original) << pair;
        for (size_t i = 1; i < failures.size(); ++i) {
            EXPECT_FALSE(failures[i]->shrunk) << pair;
            EXPECT_EQ(failures[i]->reproducer.size(),
                      recordFuzzTrace(failures[i]->seed,
                                      options.conditionals)
                          .size())
                << pair;
        }
    }
    EXPECT_GE(most, 3u) << "no pair failed on three traces";
}

TEST(RecordCheckDeath, PredictorBugsHaveNoOracleForm)
{
    EXPECT_DEATH(injectedOracle(InjectedBug::LoopTripOffByOne),
                 "not an oracle bug");
}

} // namespace
} // namespace copra::check
