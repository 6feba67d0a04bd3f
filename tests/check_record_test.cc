/**
 * @file
 * The record-phase differential: core::recordStates against the
 * collect-and-probe reference (check/record_check.hpp), row for row,
 * over fuzzed traces at window depths 1, 16 and 64 under every tag
 * filter, plus proof that the fuzzed traces reach the edges the
 * occurrence-chain walk has to get right and that the planted
 * link-off-by-one bug is caught and shrunk.
 */

#include <gtest/gtest.h>

#include <set>
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

TEST(RecordCheck, RecordMatchesReferenceOnFuzzedTraces)
{
    SuiteOptions options;
    options.seedBase = 1;
    options.traces = 30;
    options.conditionals = 3000;
    SuiteReport report = runRecordSuite(options, core::recordStates<>);
    EXPECT_EQ(report.tracesRun, 30u);
    EXPECT_EQ(report.comparisons, 30u * recordCheckConfigs().size());
    EXPECT_TRUE(report.ok()) << formatReport(report);
}

TEST(RecordCheck, FuzzedTracesReachTheWalkEdges)
{
    // The chain walk has three edges the reference handles implicitly:
    // a method-B candidate near the 0xff limit, both in the path (its
    // distance hit) and out of it (the distance went one past); a
    // deeper method-A instance in the path; and a branch that runs
    // more than the deepest window's worth of times in a row, so its
    // chain outlives the window.
    uint64_t b_edge_in = 0;
    uint64_t b_edge_out = 0;
    uint64_t a_deep_in = 0;
    uint64_t longest_run = 0;
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
}

TEST(RecordCheck, LinkOffByOneIsCaughtAndShrunk)
{
    SuiteOptions options;
    options.seedBase = 1;
    options.traces = 4;
    options.conditionals = 1000;
    SuiteReport report = runRecordSuite(
        options, injectedRecord(InjectedBug::OracleRecordLinkOffByOne));
    ASSERT_FALSE(report.ok()) << "planted record bug was not caught";
    for (const SuiteFailure &failure : report.failures) {
        EXPECT_EQ(failure.first.path, "record");
        EXPECT_GT(failure.reproducer.size(), 0u);
        EXPECT_LE(failure.reproducer.size(), 1000u) << failure.pair;
        // The shrunk trace still fails under the same configuration.
        bool still_fails = false;
        for (const OracleConfig &config : recordCheckConfigs()) {
            if (failure.pair == "oracle-record(" +
                    recordConfigLabel(config) + ")")
                still_fails = !diffRecord(
                    failure.reproducer, config,
                    injectedRecord(InjectedBug::OracleRecordLinkOffByOne))
                                   .ok();
        }
        EXPECT_TRUE(still_fails) << failure.pair;
    }
}

TEST(RecordCheckDeath, PredictorBugsHaveNoRecordForm)
{
    EXPECT_DEATH(injectedRecord(InjectedBug::LoopTripOffByOne),
                 "not a record-phase bug");
}

} // namespace
} // namespace copra::check
