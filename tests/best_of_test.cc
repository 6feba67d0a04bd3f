/**
 * @file
 * Unit tests for best-predictor accounting: splits, accuracy-difference
 * percentiles, and ledger combinators (paper §5).
 */

#include <gtest/gtest.h>

#include <tuple>
#include <utility>

#include "core/best_of.hpp"

namespace copra::core {
namespace {

sim::Ledger
ledgerOf(std::initializer_list<std::tuple<uint64_t, uint64_t, uint64_t,
                                          uint64_t>> rows)
{
    PcRows<sim::BranchTally> out;
    for (const auto &[pc, execs, correct, taken] : rows)
        out.emplace_back(pc, sim::BranchTally{execs, correct, taken});
    return sim::Ledger(std::move(out));
}

TEST(BestOfSplit, PartitionsByPerBranchWinner)
{
    // Branch 1: A wins. Branch 2: B wins. Branch 3: static wins.
    sim::Ledger a = ledgerOf({{1, 100, 90, 50},
                              {2, 100, 40, 50},
                              {3, 100, 50, 95}});
    sim::Ledger b = ledgerOf({{1, 100, 70, 50},
                              {2, 100, 80, 50},
                              {3, 100, 60, 95}});
    sim::Ledger st = idealStaticLedger(a);
    // st: branch1 max(50,50)=50 < 90; branch2 50 < 80; branch3
    // max(95,5)=95 >= max(50,60).
    BestOfSplit split = bestOfSplit(a, b, st);
    EXPECT_NEAR(split.fracA, 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(split.fracB, 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(split.fracStatic, 1.0 / 3.0, 1e-12);
}

TEST(BestOfSplit, TiesGoToStaticThenA)
{
    sim::Ledger a = ledgerOf({{1, 100, 60, 60}, {2, 100, 70, 50}});
    sim::Ledger b = ledgerOf({{1, 100, 60, 60}, {2, 100, 70, 50}});
    sim::Ledger st = idealStaticLedger(a);
    // Branch 1: static 60 == dynamic max 60 -> static. Branch 2: A ties
    // B at 70 > static 50 -> A.
    BestOfSplit split = bestOfSplit(a, b, st);
    EXPECT_NEAR(split.fracStatic, 0.5, 1e-12);
    EXPECT_NEAR(split.fracA, 0.5, 1e-12);
    EXPECT_NEAR(split.fracB, 0.0, 1e-12);
}

TEST(BestOfSplit, WeightsByExecutionFrequency)
{
    sim::Ledger a = ledgerOf({{1, 900, 900, 450}, {2, 100, 10, 50}});
    sim::Ledger b = ledgerOf({{1, 900, 100, 450}, {2, 100, 90, 50}});
    sim::Ledger st = idealStaticLedger(a);
    BestOfSplit split = bestOfSplit(a, b, st);
    EXPECT_NEAR(split.fracA, 0.9, 1e-12);
    EXPECT_NEAR(split.fracB, 0.1, 1e-12);
}

TEST(BestOfSplit, StaticBiasedFraction)
{
    // Two static-best branches: one 100% biased, one 50% biased.
    sim::Ledger a = ledgerOf({{1, 100, 20, 100}, {2, 100, 20, 50}});
    sim::Ledger b = a;
    sim::Ledger st = idealStaticLedger(a);
    BestOfSplit split = bestOfSplit(a, b, st, 0.99);
    EXPECT_NEAR(split.fracStatic, 1.0, 1e-12);
    EXPECT_NEAR(split.staticBiasedFraction, 0.5, 1e-12);
}

TEST(BestOfSplit, EmptyLedgersGiveZeroSplit)
{
    sim::Ledger a, b, st;
    BestOfSplit split = bestOfSplit(a, b, st);
    EXPECT_DOUBLE_EQ(split.fracA + split.fracB + split.fracStatic, 0.0);
}

TEST(BestOfSplitDeath, MismatchedLedgersPanic)
{
    sim::Ledger a = ledgerOf({{1, 100, 50, 50}});
    sim::Ledger b = ledgerOf({{1, 90, 50, 50}});
    sim::Ledger st = idealStaticLedger(a);
    EXPECT_DEATH(bestOfSplit(a, b, st), "different traces");
}

// Every join pairs row i with row i, so a branch the first ledger lacks
// is a different trace, even when every shared branch matches.
TEST(BestOfSplitDeath, BranchMissingFromFirstPanics)
{
    sim::Ledger a = ledgerOf({{1, 100, 50, 50}});
    sim::Ledger b = ledgerOf({{1, 100, 50, 50}, {2, 10, 5, 5}});
    EXPECT_DEATH(bestOfSplit(a, b, idealStaticLedger(a)),
                 "different traces");
    EXPECT_DEATH(bestOfSplit(a, a, idealStaticLedger(b)),
                 "different traces");
}

TEST(AccuracyDifferenceDeath, BranchMissingFromFirstPanics)
{
    sim::Ledger a = ledgerOf({{2, 100, 50, 50}});
    sim::Ledger b = ledgerOf({{1, 10, 5, 5}, {2, 100, 50, 50}});
    EXPECT_DEATH(accuracyDifference(a, b), "different traces");
}

TEST(MaxLedgerDeath, BranchMissingFromFirstPanics)
{
    sim::Ledger a = ledgerOf({{1, 10, 3, 5}});
    sim::Ledger b = ledgerOf({{1, 10, 7, 5}, {2, 10, 2, 5}});
    EXPECT_DEATH(maxLedger(a, b), "different traces");
}

TEST(AccuracyDifference, PercentilesReflectPerBranchGaps)
{
    // Branch 1 (weight 50): A - B = +20 points. Branch 2 (weight 50):
    // A - B = -40 points.
    sim::Ledger a = ledgerOf({{1, 50, 45, 25}, {2, 50, 10, 25}});
    sim::Ledger b = ledgerOf({{1, 50, 35, 25}, {2, 50, 30, 25}});
    WeightedPercentiles wp = accuracyDifference(a, b);
    EXPECT_EQ(wp.totalWeight(), 100u);
    EXPECT_DOUBLE_EQ(wp.percentile(10), -40.0);
    EXPECT_DOUBLE_EQ(wp.percentile(90), 20.0);
}

TEST(IdealStaticLedger, ComputesMajorityFromTakenCounts)
{
    sim::Ledger ref = ledgerOf({{1, 100, 0, 80}, {2, 100, 0, 20}});
    sim::Ledger st = idealStaticLedger(ref);
    EXPECT_EQ(st.branch(1).correct, 80u);
    EXPECT_EQ(st.branch(2).correct, 80u);
    EXPECT_EQ(st.branch(1).execs, 100u);
}

TEST(MaxLedger, TakesPerBranchMaximum)
{
    sim::Ledger a = ledgerOf({{1, 10, 3, 5}, {2, 10, 9, 5}});
    sim::Ledger b = ledgerOf({{1, 10, 7, 5}, {2, 10, 2, 5}});
    sim::Ledger m = maxLedger(a, b);
    EXPECT_EQ(m.branch(1).correct, 7u);
    EXPECT_EQ(m.branch(2).correct, 9u);
    EXPECT_DOUBLE_EQ(m.accuracyPercent(), 80.0);
}

TEST(MaxLedger, IsIdempotentAndCommutativeOnCorrectCounts)
{
    sim::Ledger a = ledgerOf({{1, 10, 3, 5}, {2, 10, 9, 5}});
    sim::Ledger b = ledgerOf({{1, 10, 7, 5}, {2, 10, 2, 5}});
    sim::Ledger ab = maxLedger(a, b);
    sim::Ledger ba = maxLedger(b, a);
    EXPECT_EQ(ab.branch(1).correct, ba.branch(1).correct);
    EXPECT_EQ(ab.branch(2).correct, ba.branch(2).correct);
    sim::Ledger aa = maxLedger(a, a);
    EXPECT_EQ(aa.branch(1).correct, a.branch(1).correct);
}

} // namespace
} // namespace copra::core
