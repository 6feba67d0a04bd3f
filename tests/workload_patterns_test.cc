/**
 * @file
 * Unit tests for the crafted pattern trace generators.
 */

#include <gtest/gtest.h>

#include "trace/trace_stats.hpp"
#include "workload/patterns.hpp"

namespace copra::workload {
namespace {

TEST(Patterns, LoopTraceIsForType)
{
    trace::Trace t = loopTrace(0x200, 4, 3);
    ASSERT_EQ(t.size(), 12u);
    for (uint32_t inv = 0; inv < 3; ++inv) {
        EXPECT_TRUE(t[inv * 4 + 0].taken);
        EXPECT_TRUE(t[inv * 4 + 1].taken);
        EXPECT_TRUE(t[inv * 4 + 2].taken);
        EXPECT_FALSE(t[inv * 4 + 3].taken);
    }
    EXPECT_TRUE(t[0].isBackward());
}

TEST(Patterns, LoopTraceTripOneIsAlwaysNotTaken)
{
    trace::Trace t = loopTrace(0x200, 1, 5);
    ASSERT_EQ(t.size(), 5u);
    for (size_t i = 0; i < t.size(); ++i)
        EXPECT_FALSE(t[i].taken);
}

TEST(Patterns, WhileTraceIsWhileType)
{
    trace::Trace t = whileTrace(0x100, 3, 2);
    ASSERT_EQ(t.size(), 8u);
    bool expected[] = {false, false, false, true};
    for (size_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(t[i].taken, expected[i % 4]) << i;
    EXPECT_FALSE(t[0].isBackward()); // exit branch is forward
}

TEST(Patterns, PeriodicTraceCycles)
{
    trace::Trace t = periodicTrace(0x100, {true, false, false}, 4);
    ASSERT_EQ(t.size(), 12u);
    for (size_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(t[i].taken, i % 3 == 0) << i;
}

TEST(Patterns, BlockPatternAlternatesRuns)
{
    trace::Trace t = blockPatternTrace(0x100, 2, 3, 2);
    ASSERT_EQ(t.size(), 10u);
    bool expected[] = {true, true, false, false, false};
    for (size_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(t[i].taken, expected[i % 5]) << i;
}

TEST(Patterns, BiasedTraceApproximatesP)
{
    trace::Trace t = biasedTrace(0x100, 0.8, 20000, 7);
    trace::TraceStats stats(t);
    EXPECT_NEAR(stats.branch(0x100).takenRate(), 0.8, 0.02);
}

TEST(Patterns, CorrelatedPairImpliesX)
{
    trace::Trace t = correlatedPairTrace(0x100, 0x200, 0.5, 0.5, 1000, 3);
    ASSERT_EQ(t.size(), 2000u);
    for (size_t i = 0; i < t.size(); i += 2) {
        ASSERT_EQ(t[i].pc, 0x100u);
        ASSERT_EQ(t[i + 1].pc, 0x200u);
        // X = cond1 AND cond2, so Y not-taken forces X not-taken.
        if (!t[i].taken) {
            EXPECT_FALSE(t[i + 1].taken);
        }
    }
}

TEST(Patterns, InPathTraceReachingArmVImpliesXTaken)
{
    trace::Trace t = inPathTrace(0x100, 0.5, 0.5, 0.5, 2000, 11);
    // Scan: whenever pc_v (base+8) appears, the following branch X
    // (base+64) must be taken — the paper's Fig. 2 property.
    for (size_t i = 0; i + 1 < t.size(); ++i) {
        if (t[i].pc == 0x108) {
            ASSERT_EQ(t[i + 1].pc, 0x140u);
            EXPECT_TRUE(t[i + 1].taken);
        }
    }
    // And X must appear exactly once per iteration.
    uint64_t x_count = 0;
    for (size_t i = 0; i < t.size(); ++i)
        if (t[i].pc == 0x140)
            ++x_count;
    EXPECT_EQ(x_count, 2000u);
}

TEST(Patterns, InterleaveRoundRobins)
{
    trace::Trace a = loopTrace(0x100, 2, 2);     // 4 records
    trace::Trace b = periodicTrace(0x200, {true}, 2); // 2 records
    trace::Trace merged = interleave({a, b});
    ASSERT_EQ(merged.size(), 6u);
    EXPECT_EQ(merged[0].pc, 0x100u);
    EXPECT_EQ(merged[1].pc, 0x200u);
    EXPECT_EQ(merged[2].pc, 0x100u);
    EXPECT_EQ(merged[3].pc, 0x200u);
    EXPECT_EQ(merged[4].pc, 0x100u); // a's tail continues alone
    EXPECT_EQ(merged[5].pc, 0x100u);
}

TEST(Patterns, InterleaveOfNothingIsEmpty)
{
    trace::Trace merged = interleave({});
    EXPECT_TRUE(merged.empty());
}

} // namespace
} // namespace copra::workload
