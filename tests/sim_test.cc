/**
 * @file
 * Unit tests for the simulation driver and the per-branch ledger.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "predictor/static_pred.hpp"
#include "sim/driver.hpp"
#include "sim/ledger.hpp"

namespace copra::sim {
namespace {

using predictor::AlwaysTaken;
using trace::BranchKind;
using trace::BranchRecord;

/** Probe predictor that records the driver's call sequence. */
class Probe : public predictor::Predictor
{
  public:
    bool
    step(const BranchRecord &, bool taken) noexcept override
    {
        ++steps;
        if (taken)
            ++taken_steps;
        return true;
    }
    void observe(const BranchRecord &) noexcept override { ++observes; }
    std::string name() const override { return "probe"; }

    int steps = 0;
    int observes = 0;
    int taken_steps = 0;
};

trace::Trace
mixedTrace()
{
    trace::Trace t("mixed");
    t.append({0x100, 0x180, BranchKind::Conditional, true});
    t.append({0x104, 0x400, BranchKind::Call, true});
    t.append({0x404, 0x108, BranchKind::Return, true});
    t.append({0x108, 0x080, BranchKind::Conditional, false});
    t.append({0x10c, 0x100, BranchKind::Jump, true});
    t.append({0x100, 0x180, BranchKind::Conditional, true});
    return t;
}

TEST(Driver, PredictsOnlyConditionals)
{
    Probe probe;
    auto result = run(mixedTrace(), probe);
    EXPECT_EQ(probe.steps, 3);
    EXPECT_EQ(probe.taken_steps, 2);
    EXPECT_EQ(probe.observes, 3);
    EXPECT_EQ(result.dynamicBranches, 3u);
}

TEST(Driver, CountsCorrectPredictions)
{
    AlwaysTaken taken;
    auto result = run(mixedTrace(), taken);
    EXPECT_EQ(result.dynamicBranches, 3u);
    EXPECT_EQ(result.correct, 2u);
    EXPECT_NEAR(result.accuracyPercent(), 200.0 / 3.0, 1e-9);
    EXPECT_NEAR(result.mispredictPercent(), 100.0 / 3.0, 1e-9);
}

TEST(Driver, LedgerMatchesAggregate)
{
    AlwaysTaken taken;
    Ledger ledger;
    auto result = run(mixedTrace(), taken, &ledger);
    EXPECT_EQ(ledger.dynamic(), result.dynamicBranches);
    EXPECT_EQ(ledger.correct(), result.correct);
    auto b100 = ledger.branch(0x100);
    EXPECT_EQ(b100.execs, 2u);
    EXPECT_EQ(b100.correct, 2u);
    EXPECT_EQ(b100.taken, 2u);
    auto b108 = ledger.branch(0x108);
    EXPECT_EQ(b108.execs, 1u);
    EXPECT_EQ(b108.correct, 0u);
}

TEST(Driver, LedgerHoldsOneRowPerExecutedConditional)
{
    // Non-conditional pcs hold static ids too, but get no row; a second
    // run into the same ledger replaces it rather than adding to it.
    AlwaysTaken taken;
    Ledger ledger;
    run(mixedTrace(), taken, &ledger);
    run(mixedTrace(), taken, &ledger);
    ASSERT_EQ(ledger.staticBranches(), 2u);
    EXPECT_EQ(ledger.table()[0].first, 0x100u);
    EXPECT_EQ(ledger.table()[1].first, 0x108u);
    EXPECT_EQ(ledger.dynamic(), 3u);
}

TEST(Driver, EmptyTraceGivesUndefinedAccuracy)
{
    trace::Trace empty;
    AlwaysTaken pred;
    auto result = run(empty, pred);
    EXPECT_EQ(result.dynamicBranches, 0u);
    // No conditional was predicted, so accuracy is N/A — NaN, not a
    // misleading 0% — and defined() lets rankings skip the result.
    EXPECT_FALSE(result.defined());
    EXPECT_TRUE(std::isnan(result.accuracyPercent()));
    EXPECT_TRUE(std::isnan(result.mispredictPercent()));
}

TEST(Driver, NonConditionalOnlyTraceGivesUndefinedAccuracy)
{
    trace::Trace t("jumps-only", 1);
    t.append({0x100, 0x200, trace::BranchKind::Jump, true});
    t.append({0x104, 0x300, trace::BranchKind::Call, true});
    t.append({0x108, 0x400, trace::BranchKind::Return, true});
    AlwaysTaken pred;
    auto result = run(t, pred);
    EXPECT_EQ(result.dynamicBranches, 0u);
    EXPECT_FALSE(result.defined());
    EXPECT_TRUE(std::isnan(result.accuracyPercent()));
}

TEST(Ledger, ConstructorSortsRowsByPc)
{
    Ledger ledger(
        {{0x300, {4, 1, 2}}, {0x100, {3, 2, 2}}, {0x200, {1, 1, 0}}});
    ASSERT_EQ(ledger.staticBranches(), 3u);
    EXPECT_EQ(ledger.table()[0].first, 0x100u);
    EXPECT_EQ(ledger.table()[1].first, 0x200u);
    EXPECT_EQ(ledger.table()[2].first, 0x300u);
    auto tally = ledger.branch(0x100);
    EXPECT_EQ(tally.execs, 3u);
    EXPECT_EQ(tally.taken, 2u);
    EXPECT_EQ(tally.correct, 2u);
    EXPECT_NEAR(tally.accuracy(), 2.0 / 3.0, 1e-12);
    EXPECT_EQ(ledger.branch(0x300).execs, 4u);
    EXPECT_EQ(ledger.dynamic(), 8u);
    EXPECT_EQ(ledger.correct(), 4u);
}

TEST(Ledger, UnknownBranchIsZeroTally)
{
    Ledger ledger({{0x100, {10, 9, 5}}, {0x200, {10, 9, 5}}});
    for (uint64_t pc : {0x0ull, 0x150ull, 0x1234ull}) {
        auto tally = ledger.branch(pc);
        EXPECT_EQ(tally.execs, 0u);
        EXPECT_DOUBLE_EQ(tally.accuracy(), 0.0);
    }
    EXPECT_EQ(Ledger{}.branch(0x100).execs, 0u);
}

TEST(Ledger, AccuracyPercentAggregates)
{
    Ledger ledger({{0x100, {10, 10, 10}}, {0x200, {10, 5, 0}}});
    EXPECT_DOUBLE_EQ(ledger.accuracyPercent(), 75.0);
    EXPECT_EQ(ledger.staticBranches(), 2u);
    EXPECT_TRUE(std::isnan(Ledger{}.accuracyPercent()));
}

TEST(Ledger, BestOfTakesPerBranchMax)
{
    Ledger a({{0x100, {10, 8, 5}}, {0x200, {10, 2, 5}}});
    Ledger b({{0x200, {10, 9, 5}}, {0x100, {10, 3, 5}}});
    EXPECT_DOUBLE_EQ(bestOfAccuracyPercent(a, b), 85.0);
}

TEST(LedgerDeath, DuplicatePcPanics)
{
    EXPECT_DEATH(Ledger({{0x100, {1, 1, 1}}, {0x100, {2, 1, 1}}}),
                 "duplicate pc");
}

TEST(LedgerDeath, BestOfRejectsMismatchedTraces)
{
    Ledger a({{0x100, {10, 8, 5}}});
    Ledger b({{0x100, {7, 3, 5}}});
    EXPECT_DEATH(bestOfAccuracyPercent(a, b), "different traces");
}

TEST(LedgerDeath, BestOfRejectsBranchMissingFromFirst)
{
    Ledger a({{0x100, {10, 8, 5}}});
    Ledger b({{0x100, {10, 3, 5}}, {0x200, {10, 3, 5}}});
    EXPECT_DEATH(bestOfAccuracyPercent(a, b), "different traces");
}

} // namespace
} // namespace copra::sim
