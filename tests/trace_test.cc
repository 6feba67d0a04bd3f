/**
 * @file
 * Unit tests for branch records, traces, and trace statistics.
 */

#include <gtest/gtest.h>

#include "trace/trace.hpp"
#include "trace/trace_stats.hpp"
#include "workload/patterns.hpp"

namespace copra::trace {
namespace {

BranchRecord
cond(uint64_t pc, bool taken, uint64_t target = 0)
{
    return {pc, target ? target : pc + 64, BranchKind::Conditional, taken};
}

TEST(BranchRecord, KindPredicates)
{
    EXPECT_TRUE(cond(0x100, true).isConditional());
    BranchRecord call{0x100, 0x200, BranchKind::Call, true};
    EXPECT_FALSE(call.isConditional());
}

TEST(BranchRecord, BackwardMeansTargetBeforePc)
{
    BranchRecord loop{0x200, 0x100, BranchKind::Conditional, true};
    EXPECT_TRUE(loop.isBackward());
    BranchRecord fwd{0x100, 0x200, BranchKind::Conditional, true};
    EXPECT_FALSE(fwd.isBackward());
}

TEST(BranchRecord, KindNames)
{
    EXPECT_STREQ(branchKindName(BranchKind::Conditional), "cond");
    EXPECT_STREQ(branchKindName(BranchKind::Jump), "jump");
    EXPECT_STREQ(branchKindName(BranchKind::Call), "call");
    EXPECT_STREQ(branchKindName(BranchKind::Return), "ret");
}

TEST(Trace, AppendTracksConditionalCount)
{
    Trace t("test", 5);
    EXPECT_TRUE(t.empty());
    t.append(cond(0x100, true));
    t.append({0x104, 0x200, BranchKind::Call, true});
    t.append(cond(0x204, false));
    EXPECT_EQ(t.size(), 3u);
    EXPECT_EQ(t.conditionalCount(), 2u);
    EXPECT_EQ(t.name(), "test");
    EXPECT_EQ(t.seed(), 5u);
}

TEST(Trace, IndexingReturnsRecords)
{
    Trace t;
    t.append(cond(0x100, true));
    EXPECT_EQ(t[0].pc, 0x100u);
    EXPECT_TRUE(t[0].taken);
}

TEST(Trace, ClearEmptiesEverything)
{
    Trace t;
    t.append(cond(0x100, true));
    t.clear();
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.conditionalCount(), 0u);
}

TEST(Trace, CopiesAreDeep)
{
    Trace t("p", 1);
    t.append({0x10, 0x20, BranchKind::Call, true});
    t.append(cond(0x20, true));
    Trace copy = t;
    copy.append(cond(0x30, false));
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(t.conditionalCount(), 1u);
    EXPECT_EQ(t.soa().staticCount(), 2u);
    EXPECT_EQ(copy.size(), 3u);
    EXPECT_EQ(copy.conditionalCount(), 2u);
    EXPECT_EQ(copy.soa().staticCount(), 3u);
    EXPECT_EQ(copy.name(), "p");
}

TEST(TraceStats, PerBranchCounts)
{
    Trace t;
    t.append(cond(0x100, true));
    t.append(cond(0x100, true));
    t.append(cond(0x100, false));
    t.append(cond(0x200, false));
    t.append({0x204, 0x300, BranchKind::Jump, true}); // ignored

    TraceStats stats(t);
    EXPECT_EQ(stats.staticBranches(), 2u);
    EXPECT_EQ(stats.dynamicBranches(), 4u);
    EXPECT_EQ(stats.dynamicTaken(), 2u);

    StaticBranchStats b = stats.branch(0x100);
    EXPECT_EQ(b.execs, 3u);
    EXPECT_EQ(b.taken, 2u);
    EXPECT_NEAR(b.takenRate(), 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(b.bias(), 2.0 / 3.0, 1e-12);
    EXPECT_EQ(b.idealStaticCorrect(), 2u);
}

TEST(TraceStats, UnknownBranchIsZero)
{
    Trace t;
    TraceStats stats(t);
    EXPECT_EQ(stats.branch(0xdead).execs, 0u);
}

TEST(TraceStats, BiasOfNotTakenBranch)
{
    Trace t;
    for (int i = 0; i < 99; ++i)
        t.append(cond(0x100, false));
    t.append(cond(0x100, true));
    TraceStats stats(t);
    EXPECT_NEAR(stats.branch(0x100).bias(), 0.99, 1e-12);
    EXPECT_EQ(stats.branch(0x100).idealStaticCorrect(), 99u);
}

TEST(TraceStats, BiasedFractionCountsDynamically)
{
    Trace t;
    // Branch A: 100% biased, 10 execs. Branch B: 50/50, 10 execs.
    for (int i = 0; i < 10; ++i)
        t.append(cond(0x100, true));
    for (int i = 0; i < 5; ++i) {
        t.append(cond(0x200, true));
        t.append(cond(0x200, false));
    }
    TraceStats stats(t);
    EXPECT_NEAR(stats.dynamicFractionWithBiasAbove(0.99), 0.5, 1e-12);
    EXPECT_NEAR(stats.dynamicFractionWithBiasAbove(0.4), 1.0, 1e-12);
}

TEST(TraceStats, IdealStaticCorrectSumsPerBranchMajorities)
{
    Trace t;
    for (int i = 0; i < 3; ++i)
        t.append(cond(0x100, true));
    t.append(cond(0x100, false));
    for (int i = 0; i < 2; ++i)
        t.append(cond(0x200, false));
    TraceStats stats(t);
    EXPECT_EQ(stats.idealStaticCorrect(), 3u + 2u);
}

} // namespace
} // namespace copra::trace
