/**
 * @file
 * Unit tests for static predictors, the ideal static predictor, the
 * bimodal predictor, and the predictor factory.
 */

#include <gtest/gtest.h>

#include "predictor/bimodal.hpp"
#include "predictor/factory.hpp"
#include "predictor/ideal_static.hpp"
#include "predictor/static_pred.hpp"
#include "sim/driver.hpp"
#include "trace/trace_stats.hpp"
#include "workload/patterns.hpp"

namespace copra::predictor {
namespace {

trace::BranchRecord
cond(uint64_t pc, bool taken = true, uint64_t target = 0)
{
    return {pc, target ? target : pc + 64,
            trace::BranchKind::Conditional, taken};
}

TEST(StaticPredictors, AlwaysTakenAndNotTaken)
{
    AlwaysTaken t;
    AlwaysNotTaken n;
    EXPECT_TRUE(t.predict(cond(0x100)));
    EXPECT_FALSE(n.predict(cond(0x100)));
    // Updates have no effect.
    t.update(cond(0x100), false);
    n.update(cond(0x100), true);
    EXPECT_TRUE(t.predict(cond(0x100)));
    EXPECT_FALSE(n.predict(cond(0x100)));
}

TEST(StaticPredictors, BtfntFollowsDirection)
{
    Btfnt b;
    EXPECT_TRUE(b.predict(cond(0x200, true, 0x100)));  // backward
    EXPECT_FALSE(b.predict(cond(0x100, true, 0x200))); // forward
}

TEST(Bimodal, LearnsABiasedBranch)
{
    Bimodal pred(10);
    auto trace = workload::biasedTrace(0x100, 0.95, 2000, 5);
    auto result = sim::run(trace, pred);
    EXPECT_GT(result.accuracyPercent(), 90.0);
}

TEST(Bimodal, HysteresisSurvivesSingleAnomaly)
{
    Bimodal pred(8);
    for (int i = 0; i < 4; ++i)
        pred.update(cond(0x100), true);
    pred.update(cond(0x100), false); // one not-taken
    EXPECT_TRUE(pred.predict(cond(0x100))); // still predicts taken
}

TEST(Bimodal, AliasingIsReal)
{
    // Two branches 2^bits apart share a counter in a small table.
    Bimodal pred(4);
    uint64_t pc_a = 0x100;
    uint64_t pc_b = 0x100 + (1u << 4) * 4; // same index after >> 2
    for (int i = 0; i < 4; ++i)
        pred.update(cond(pc_a), true);
    EXPECT_TRUE(pred.predict(cond(pc_b)));
    for (int i = 0; i < 4; ++i)
        pred.update(cond(pc_b), false);
    EXPECT_FALSE(pred.predict(cond(pc_a)));
}

TEST(Bimodal, ResetForgets)
{
    Bimodal pred(8);
    for (int i = 0; i < 4; ++i)
        pred.update(cond(0x100), true);
    pred.reset();
    EXPECT_FALSE(pred.predict(cond(0x100))); // back to weakly-not-taken
}

TEST(Bimodal, TableSizeMatchesBits)
{
    EXPECT_EQ(Bimodal(6).tableSize(), 64u);
    EXPECT_EQ(Bimodal(12).tableSize(), 4096u);
}

TEST(Bimodal, NameMentionsGeometry)
{
    EXPECT_EQ(Bimodal(12).name(), "bimodal(12b)");
}

TEST(IdealStatic, PredictsMajorityDirection)
{
    trace::Trace t;
    for (int i = 0; i < 7; ++i)
        t.append(cond(0x100, true));
    for (int i = 0; i < 3; ++i)
        t.append(cond(0x100, false));
    for (int i = 0; i < 9; ++i)
        t.append(cond(0x200, false));

    IdealStatic pred = IdealStatic::fromTrace(t);
    EXPECT_EQ(pred.branches(), 2u);
    EXPECT_TRUE(pred.predict(cond(0x100, true)));
    EXPECT_FALSE(pred.predict(cond(0x200, true)));
    // Unprofiled branches default to taken.
    EXPECT_TRUE(pred.predict(cond(0x999, true)));
}

TEST(IdealStatic, AccuracyEqualsPerBranchMajority)
{
    auto trace = workload::biasedTrace(0x100, 0.8, 10000, 7);
    IdealStatic pred = IdealStatic::fromTrace(trace);
    auto result = sim::run(trace, pred);
    trace::TraceStats stats(trace);
    EXPECT_EQ(result.correct, stats.idealStaticCorrect());
}

TEST(IdealStatic, TieGoesToTaken)
{
    trace::Trace t;
    t.append(cond(0x100, true));
    t.append(cond(0x100, false));
    IdealStatic pred = IdealStatic::fromTrace(t);
    EXPECT_TRUE(pred.predict(cond(0x100, false)));
}

class FactoryNames : public ::testing::TestWithParam<std::string>
{
};

TEST_P(FactoryNames, ConstructsAndRuns)
{
    PredictorPtr pred = makePredictor(GetParam());
    ASSERT_NE(pred, nullptr);
    EXPECT_FALSE(pred->name().empty());
    auto trace = workload::biasedTrace(0x100, 0.9, 500, 3);
    auto result = sim::run(trace, *pred);
    EXPECT_EQ(result.dynamicBranches, 500u);
    pred->reset();
}

INSTANTIATE_TEST_SUITE_P(AllKnown, FactoryNames,
                         ::testing::ValuesIn(knownPredictors()));

TEST(Factory, ParsesParameters)
{
    PredictorPtr gshare = makePredictor("gshare:h=10");
    EXPECT_NE(gshare->name().find("h=10"), std::string::npos);
    PredictorPtr pas = makePredictor("pas:h=8,bht=6,s=2");
    EXPECT_NE(pas->name().find("h=8"), std::string::npos);
}

TEST(FactoryDeath, UnknownNameIsFatal)
{
    EXPECT_EXIT(makePredictor("neuralnet"),
                ::testing::ExitedWithCode(1), "unknown predictor");
}

TEST(FactoryDeath, MalformedParameterIsFatal)
{
    EXPECT_EXIT(makePredictor("gshare:h"), ::testing::ExitedWithCode(1),
                "malformed");
    // A value is a whole unsigned decimal <= UINT_MAX: a prefix parse or
    // a wrap would build a different predictor than the spec names.
    for (const char *spec :
         {"gshare:h=abc", "gshare:h=12abc", "pas:h=+7",
          "bimodal:bits=3junk", "gshare:h=-1", "gshare:h=4294967296",
          "gshare:h= 12", "gshare:h="}) {
        EXPECT_EXIT(makePredictor(spec), ::testing::ExitedWithCode(1),
                    "not a number")
            << spec;
    }
    // TAGE's aging period takes any value, so the largest one builds.
    EXPECT_NE(makePredictor("tage:aging=4294967295"), nullptr);
}

TEST(FactoryDeath, UnreadKeyIsFatal)
{
    // A typo of cbits must not build default 2-bit counters in silence.
    EXPECT_EXIT(makePredictor("gshare:cbit=3"),
                ::testing::ExitedWithCode(1),
                "predictor 'gshare' has no parameter 'cbit' "
                "\\(in 'gshare:cbit=3'\\)");
    EXPECT_EXIT(makePredictor("bimodal:h=10"),
                ::testing::ExitedWithCode(1), "has no parameter 'h'");
    EXPECT_EXIT(makePredictor("taken:k=1"), ::testing::ExitedWithCode(1),
                "has no parameter 'k'");
}

} // namespace
} // namespace copra::predictor
