/**
 * @file
 * Unit tests for the simulation driver and the per-branch ledger.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "predictor/static_pred.hpp"
#include "sim/driver.hpp"
#include "sim/ledger.hpp"
#include "workload/patterns.hpp"

namespace copra::sim {
namespace {

using predictor::AlwaysNotTaken;
using predictor::AlwaysTaken;
using trace::BranchKind;
using trace::BranchRecord;

/** Probe predictor that records the driver's call sequence. */
class Probe : public predictor::Predictor
{
  public:
    bool
    predict(const BranchRecord &) noexcept override
    {
        ++predicts;
        return true;
    }
    void
    update(const BranchRecord &, bool taken) noexcept override
    {
        ++updates;
        if (taken)
            ++taken_updates;
    }
    void observe(const BranchRecord &) noexcept override { ++observes; }
    void reset() override { predicts = updates = observes = 0; }
    std::string name() const override { return "probe"; }

    int predicts = 0;
    int updates = 0;
    int observes = 0;
    int taken_updates = 0;
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
    EXPECT_EQ(probe.predicts, 3);
    EXPECT_EQ(probe.updates, 3);
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

TEST(Driver, RunAllParallelMatchesIndividualRuns)
{
    auto trace = workload::biasedTrace(0x100, 0.7, 2000, 3);
    AlwaysTaken t1, t2;
    AlwaysNotTaken n1, n2;

    auto res_t = run(trace, t1);
    auto res_n = run(trace, n1);

    std::vector<predictor::Predictor *> preds = {&t2, &n2};
    std::vector<Ledger> ledgers;
    auto all = runAllParallel(trace, preds, &ledgers);
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all[0].correct, res_t.correct);
    EXPECT_EQ(all[1].correct, res_n.correct);
    EXPECT_EQ(ledgers[0].correct(), res_t.correct);
    // Complementary predictors cover every branch exactly once.
    EXPECT_EQ(all[0].correct + all[1].correct, all[0].dynamicBranches);
}

TEST(Driver, RunAllParallelDeliversObserves)
{
    Probe a, b;
    std::vector<predictor::Predictor *> preds = {&a, &b};
    runAllParallel(mixedTrace(), preds);
    EXPECT_EQ(a.observes, 3);
    EXPECT_EQ(b.observes, 3);
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

TEST(Ledger, RecordAccumulates)
{
    Ledger ledger;
    ledger.record(0x100, true, true);
    ledger.record(0x100, false, false);
    ledger.record(0x100, true, true);
    auto tally = ledger.branch(0x100);
    EXPECT_EQ(tally.execs, 3u);
    EXPECT_EQ(tally.taken, 2u);
    EXPECT_EQ(tally.correct, 2u);
    EXPECT_NEAR(tally.accuracy(), 2.0 / 3.0, 1e-12);
}

TEST(Ledger, SetTallyOverwrites)
{
    Ledger ledger;
    ledger.record(0x100, true, false);
    ledger.setTally(0x100, 10, 9, 5);
    auto tally = ledger.branch(0x100);
    EXPECT_EQ(tally.execs, 10u);
    EXPECT_EQ(tally.correct, 9u);
    EXPECT_EQ(tally.taken, 5u);
}

TEST(Ledger, UnknownBranchIsZeroTally)
{
    Ledger ledger;
    auto tally = ledger.branch(0x1234);
    EXPECT_EQ(tally.execs, 0u);
    EXPECT_DOUBLE_EQ(tally.accuracy(), 0.0);
}

TEST(Ledger, AccuracyPercentAggregates)
{
    Ledger ledger;
    ledger.setTally(0x100, 10, 10, 10);
    ledger.setTally(0x200, 10, 5, 0);
    EXPECT_DOUBLE_EQ(ledger.accuracyPercent(), 75.0);
    EXPECT_EQ(ledger.staticBranches(), 2u);
}

TEST(Ledger, BestOfTakesPerBranchMax)
{
    Ledger a, b;
    a.setTally(0x100, 10, 8, 5);
    b.setTally(0x100, 10, 3, 5);
    a.setTally(0x200, 10, 2, 5);
    b.setTally(0x200, 10, 9, 5);
    EXPECT_DOUBLE_EQ(bestOfAccuracyPercent(a, b), 85.0);
}

TEST(LedgerDeath, BestOfRejectsMismatchedTraces)
{
    Ledger a, b;
    a.setTally(0x100, 10, 8, 5);
    b.setTally(0x100, 7, 3, 5);
    EXPECT_DEATH(bestOfAccuracyPercent(a, b), "different traces");
}

} // namespace
} // namespace copra::sim
