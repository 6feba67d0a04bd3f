/**
 * @file
 * Unit tests for the random program builder and the benchmark profiles.
 */

#include <gtest/gtest.h>

#include <set>

#include "trace/trace_stats.hpp"
#include "workload/builder.hpp"
#include "workload/profiles.hpp"

namespace copra::workload {
namespace {

TEST(Builder, BuildsAndRunsDefaultProfile)
{
    BenchmarkProfile profile;
    profile.targetStaticBranches = 200;
    profile.numFunctions = 4;
    Program prog = buildProgram(profile);
    EXPECT_EQ(prog.functionCount(), 4u);
    EXPECT_EQ(prog.conditionCount(), profile.numVars);
    EXPECT_GE(prog.staticBranchCount(), 150u);

    trace::Trace t = prog.run("default", 5000, 9);
    EXPECT_EQ(t.conditionalCount(), 5000u);
}

TEST(Builder, DeterministicPerBuildSeed)
{
    BenchmarkProfile profile;
    profile.targetStaticBranches = 150;
    profile.buildSeed = 77;
    Program a = buildProgram(profile);
    Program b = buildProgram(profile);
    trace::Trace ta = a.run("x", 2000, 3);
    trace::Trace tb = b.run("x", 2000, 3);
    ASSERT_EQ(ta.size(), tb.size());
    for (size_t i = 0; i < ta.size(); ++i)
        ASSERT_EQ(ta[i], tb[i]);
}

TEST(Builder, DifferentBuildSeedsGiveDifferentPrograms)
{
    BenchmarkProfile profile;
    profile.targetStaticBranches = 150;
    profile.buildSeed = 1;
    Program a = buildProgram(profile);
    profile.buildSeed = 2;
    Program b = buildProgram(profile);
    trace::Trace ta = a.run("x", 1000, 3);
    trace::Trace tb = b.run("x", 1000, 3);
    // The static branch populations should differ.
    trace::TraceStats sa(ta), sb(tb);
    std::set<uint64_t> pcs_a, pcs_b;
    for (const auto &[pc, st] : sa.perBranch())
        pcs_a.insert(pc);
    for (const auto &[pc, st] : sb.perBranch())
        pcs_b.insert(pc);
    EXPECT_NE(pcs_a, pcs_b);
}

TEST(Builder, SingleFunctionProfileWorks)
{
    BenchmarkProfile profile;
    profile.numFunctions = 1;
    profile.targetStaticBranches = 50;
    Program prog = buildProgram(profile);
    trace::Trace t = prog.run("one", 1000, 1);
    EXPECT_EQ(t.conditionalCount(), 1000u);
}

TEST(Builder, BiasKnobsAreLevelOnly)
{
    // Changing bias bands must not change the program structure: same
    // static branch sites, same record kinds, only outcomes may differ.
    BenchmarkProfile a;
    a.targetStaticBranches = 200;
    a.buildSeed = 5;
    a.moderateBiasLo = 0.60;
    a.moderateBiasHi = 0.90;
    BenchmarkProfile b = a;
    b.moderateBiasLo = 0.95;
    b.moderateBiasHi = 0.99;

    trace::Trace ta = buildProgram(a).run("a", 3000, 2);
    trace::Trace tb = buildProgram(b).run("b", 3000, 2);

    trace::TraceStats sa(ta), sb(tb);
    std::set<uint64_t> pcs_a, pcs_b;
    for (const auto &[pc, st] : sa.perBranch())
        pcs_a.insert(pc);
    for (const auto &[pc, st] : sb.perBranch())
        pcs_b.insert(pc);
    EXPECT_EQ(pcs_a, pcs_b);
}

TEST(Builder, FunctionsDoNotAliasInLowAddressBits)
{
    // Regression test: function bases must not be power-of-two aligned,
    // or same-offset branches of different functions collide in every
    // table predictor (see builder.cc kFunctionStride).
    BenchmarkProfile profile;
    profile.numFunctions = 8;
    profile.targetStaticBranches = 200;
    Program prog = buildProgram(profile);
    std::set<uint64_t> low_bits;
    for (size_t i = 0; i < prog.functionCount(); ++i)
        low_bits.insert((prog.function(i).entryPc >> 2) & 0xFFF);
    EXPECT_EQ(low_bits.size(), prog.functionCount());
}

TEST(Profiles, AllEightBenchmarksExist)
{
    const auto &names = benchmarkNames();
    ASSERT_EQ(names.size(), 8u);
    for (const auto &name : names) {
        BenchmarkProfile profile = benchmarkProfile(name);
        EXPECT_EQ(profile.name, name);
        EXPECT_GT(profile.targetStaticBranches, 0u);
    }
}

TEST(Profiles, PaperReferencesCoverAllBenchmarks)
{
    for (const auto &name : benchmarkNames()) {
        const PaperReference &ref = paperReference(name);
        EXPECT_EQ(ref.name, name);
        EXPECT_GT(ref.gshare, 80.0);
        EXPECT_LT(ref.gshare, 100.0);
        EXPECT_GT(ref.paperDynamicBranches, 1000000u);
    }
}

TEST(Profiles, MakeBenchmarkTraceHonorsBranchCount)
{
    trace::Trace t = makeBenchmarkTrace("compress", 12345, 0);
    EXPECT_EQ(t.conditionalCount(), 12345u);
    EXPECT_EQ(t.name(), "compress");
}

TEST(Profiles, CanonicalSeedIsStable)
{
    trace::Trace a = makeBenchmarkTrace("xlisp", 2000, 0);
    trace::Trace b = makeBenchmarkTrace("xlisp", 2000, 0);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); i += 13)
        ASSERT_EQ(a[i], b[i]);
}

TEST(Profiles, ExplicitSeedOverrides)
{
    trace::Trace a = makeBenchmarkTrace("perl", 2000, 111);
    trace::Trace b = makeBenchmarkTrace("perl", 2000, 222);
    int same = 0;
    int conds = 0;
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
        if (a[i].isConditional() && b[i].isConditional()) {
            ++conds;
            if (a[i].taken == b[i].taken)
                ++same;
        }
    }
    EXPECT_LT(same, conds); // outcomes differ somewhere
}

class AllBenchmarks : public ::testing::TestWithParam<std::string>
{
};

TEST_P(AllBenchmarks, GeneratesRequestedBranches)
{
    trace::Trace t = makeBenchmarkTrace(GetParam(), 20000, 0);
    EXPECT_EQ(t.conditionalCount(), 20000u);
    trace::TraceStats stats(t);
    // Every benchmark has a meaningful static branch population...
    EXPECT_GT(stats.staticBranches(), 30u);
    // ...and is not fully biased (there is something to predict).
    EXPECT_LT(stats.idealStaticCorrect(), stats.dynamicBranches());
}

TEST_P(AllBenchmarks, EmitsSomeControlFlowVariety)
{
    trace::Trace t = makeBenchmarkTrace(GetParam(), 20000, 0);
    bool saw_backward = false;
    for (const auto &rec : t.records()) {
        if (rec.isConditional() && rec.taken && rec.isBackward())
            saw_backward = true;
    }
    EXPECT_TRUE(saw_backward) << "no loop-closing branches";
}

INSTANTIATE_TEST_SUITE_P(Suite, AllBenchmarks,
                         ::testing::ValuesIn(benchmarkNames()));

TEST(ProfilesDeath, UnknownBenchmarkIsFatal)
{
    EXPECT_EXIT(benchmarkProfile("quake"), ::testing::ExitedWithCode(1),
                "unknown benchmark");
    EXPECT_EXIT(paperReference("quake"), ::testing::ExitedWithCode(1),
                "no paper reference");
}

} // namespace
} // namespace copra::workload
