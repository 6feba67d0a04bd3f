/**
 * @file
 * Unit tests for the frontier workload families (workload/frontier.hpp):
 * suite composition, deterministic generation, exact conditional
 * budgets, dispatch through makeBenchmarkTrace, and the structural
 * signatures that make each family a distinct stressor.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/characterize.hpp"
#include "workload/frontier.hpp"
#include "workload/profiles.hpp"

namespace copra::workload {
namespace {

uint64_t
countKind(const trace::Trace &t, trace::BranchKind kind)
{
    uint64_t n = 0;
    for (const auto &rec : t.records())
        if (rec.kind == kind)
            ++n;
    return n;
}

TEST(FrontierNames, SuiteIsPaperPlusFrontier)
{
    const auto &frontier = frontierNames();
    ASSERT_EQ(frontier.size(), 3u);
    EXPECT_EQ(frontier[0], "interp");
    EXPECT_EQ(frontier[1], "datadep");
    EXPECT_EQ(frontier[2], "nestloop");

    const auto &suite = workloadSuiteNames();
    const auto &paper = benchmarkNames();
    ASSERT_EQ(suite.size(), paper.size() + frontier.size());
    EXPECT_TRUE(std::equal(paper.begin(), paper.end(), suite.begin()));
    EXPECT_TRUE(std::equal(frontier.begin(), frontier.end(),
                           suite.begin() + paper.size()));

    for (const std::string &name : frontier)
        EXPECT_TRUE(isFrontierWorkload(name)) << name;
    for (const std::string &name : paper)
        EXPECT_FALSE(isFrontierWorkload(name)) << name;
}

TEST(FrontierGeneration, IsDeterministicPerSeed)
{
    for (const std::string &name : frontierNames()) {
        trace::Trace a = makeFrontierTrace(name, 5000, 3);
        trace::Trace b = makeFrontierTrace(name, 5000, 3);
        ASSERT_EQ(a.size(), b.size()) << name;
        for (size_t i = 0; i < a.size(); ++i)
            ASSERT_EQ(a[i], b[i]) << name << " record " << i;

        trace::Trace c = makeFrontierTrace(name, 5000, 4);
        bool differs = a.size() != c.size();
        for (size_t i = 0; !differs && i < a.size(); ++i)
            differs = !(a[i] == c[i]);
        EXPECT_TRUE(differs) << name << ": seed must matter";
    }
}

TEST(FrontierGeneration, HitsTheConditionalBudgetExactly)
{
    for (const std::string &name : frontierNames()) {
        for (uint64_t branches : {1000u, 7777u}) {
            trace::Trace t = makeFrontierTrace(name, branches, 0);
            EXPECT_EQ(t.conditionalCount(), branches)
                << name << " @ " << branches;
            EXPECT_GE(t.size(), branches) << name;
            EXPECT_EQ(t.name(), name);
        }
    }
}

TEST(FrontierGeneration, DispatchesThroughMakeBenchmarkTrace)
{
    for (const std::string &name : frontierNames()) {
        trace::Trace direct = makeFrontierTrace(name, 3000, 5);
        trace::Trace routed = makeBenchmarkTrace(name, 3000, 5);
        ASSERT_EQ(direct.size(), routed.size()) << name;
        for (size_t i = 0; i < direct.size(); ++i)
            ASSERT_EQ(direct[i], routed[i]) << name << " record " << i;
    }
}

TEST(FrontierStructure, InterpIsDispatchShaped)
{
    // VM dispatch: compare chains plus indirect-style jumps back to the
    // dispatcher, so the trace is jump-rich with a wide static
    // conditional footprint.
    trace::Trace t = makeFrontierTrace("interp", 20000, 0);
    EXPECT_GT(countKind(t, trace::BranchKind::Jump), 1000u);
    EXPECT_GT(t.soa().staticCount(), 15u);
}

TEST(FrontierStructure, DatadepIsCallWrappedAndNarrow)
{
    // Data-dependent scans: a handful of static branches driven by
    // value streams, wrapped in call/return pairs per segment.
    trace::Trace t = makeFrontierTrace("datadep", 20000, 0);
    uint64_t calls = countKind(t, trace::BranchKind::Call);
    uint64_t rets = countKind(t, trace::BranchKind::Return);
    EXPECT_GT(calls, 10u);
    // Pairs balance except for a call whose segment the conditional
    // budget truncated (the emitter stops at the budget exactly).
    EXPECT_LE(calls - rets, 1u);
    EXPECT_LT(t.soa().staticCount(), 12u);
}

TEST(FrontierStructure, NestloopIsHistoryPredictable)
{
    // Nested counted loops and long-period patterns: outcomes look
    // mixed without context but are near-deterministic given history —
    // entropy must collapse as the conditioning window grows.
    trace::Trace t = makeFrontierTrace("nestloop", 20000, 0);
    const std::vector<double> h = core::globalConditionedEntropyBits(t, {0, 8});
    const double h0 = h[0];
    const double h8 = h[1];
    EXPECT_GT(h0, 0.5);
    EXPECT_LT(h8, 0.5 * h0);
    EXPECT_LT(t.soa().staticCount(), 12u);
}

} // namespace
} // namespace copra::workload
