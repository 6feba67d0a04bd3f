/**
 * @file
 * Unit tests for the per-address class predictors: loop, block-pattern,
 * and the fixed-length-pattern bank (paper §4.1).
 */

#include <gtest/gtest.h>

#include "predictor/block_pattern.hpp"
#include "predictor/fixed_pattern.hpp"
#include "predictor/loop_predictor.hpp"
#include "sim/driver.hpp"
#include "workload/patterns.hpp"

namespace copra::predictor {
namespace {

trace::BranchRecord
cond(uint64_t pc, bool taken)
{
    return {pc, pc + 64, trace::BranchKind::Conditional, taken};
}

/** Accuracy of @p pred on @p trace restricted to branch @p pc. */
double
branchAccuracy(Predictor &pred, const trace::Trace &trace, uint64_t pc)
{
    sim::Ledger ledger;
    sim::run(trace, pred, &ledger);
    return 100.0 * ledger.branch(pc).accuracy();
}

class LoopTrips : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(LoopTrips, ForTypePredictedPerfectlyAfterFirstTrip)
{
    uint32_t trip = GetParam();
    LoopPredictor pred;
    auto trace = workload::loopTrace(0x100, trip, 50);
    sim::Ledger ledger;
    sim::run(trace, pred, &ledger);
    auto tally = ledger.branch(0x100);
    // Mispredictions are confined to the first one or two invocations.
    EXPECT_GE(tally.correct + 2 * trip + 2, tally.execs)
        << "trip=" << trip;
}

TEST_P(LoopTrips, WhileTypePredictedPerfectlyAfterFirstTrip)
{
    uint32_t trip = GetParam();
    LoopPredictor pred;
    auto trace = workload::whileTrace(0x100, trip, 50);
    sim::Ledger ledger;
    sim::run(trace, pred, &ledger);
    auto tally = ledger.branch(0x100);
    EXPECT_GE(tally.correct + 2 * (trip + 1) + 2, tally.execs)
        << "trip=" << trip;
}

INSTANTIATE_TEST_SUITE_P(Trips, LoopTrips,
                         ::testing::Values(2u, 3u, 5u, 17u, 100u, 254u));

TEST(LoopPredictor, AdaptsWhenTripCountChanges)
{
    LoopPredictor pred;
    // 30 invocations at trip 5, then 30 at trip 9.
    auto first = workload::loopTrace(0x100, 5, 30);
    auto second = workload::loopTrace(0x100, 9, 30);
    trace::Trace combined("switch");
    for (const auto &rec : first.records())
        combined.append(rec);
    for (const auto &rec : second.records())
        combined.append(rec);
    sim::Ledger ledger;
    sim::run(combined, pred, &ledger);
    auto tally = ledger.branch(0x100);
    // One mispredicted exit at the transition plus initial warmup.
    EXPECT_GE(tally.correct + 12, tally.execs);
}

TEST(LoopPredictor, StateIsPerBranch)
{
    LoopPredictor pred;
    auto a = workload::loopTrace(0x100, 3, 40);
    auto b = workload::loopTrace(0x200, 7, 40);
    auto trace = workload::interleave({a, b});
    sim::Ledger ledger;
    sim::run(trace, pred, &ledger);
    EXPECT_GT(100.0 * ledger.branch(0x100).accuracy(), 90.0);
    EXPECT_GT(100.0 * ledger.branch(0x200).accuracy(), 90.0);
}

TEST(LoopPredictor, StateAccessorReflectsTraining)
{
    LoopPredictor pred;
    auto trace = workload::loopTrace(0x100, 4, 5);
    sim::run(trace, pred);
    LoopState st = pred.state(0x100);
    EXPECT_TRUE(st.seen);
    EXPECT_TRUE(st.dir); // body direction is taken for for-type
    EXPECT_EQ(st.trip, 3u); // taken 3 times per invocation
    EXPECT_EQ(pred.state(0x999).seen, false);
}

TEST(LoopPredictor, RunLengthSaturatesAt255)
{
    LoopPredictor pred;
    for (int i = 0; i < 1000; ++i)
        pred.step(cond(0x100, true), true);
    EXPECT_EQ(pred.state(0x100).run, 255u);
}

struct BlockCase
{
    uint32_t n;
    uint32_t m;
};

class BlockGrid : public ::testing::TestWithParam<BlockCase>
{
};

TEST_P(BlockGrid, BlockPatternPredictedAfterOnePeriod)
{
    auto [n, m] = GetParam();
    BlockPatternPredictor pred;
    auto trace = workload::blockPatternTrace(0x100, n, m, 40);
    sim::Ledger ledger;
    sim::run(trace, pred, &ledger);
    auto tally = ledger.branch(0x100);
    // Warmup costs at most two full periods.
    EXPECT_GE(tally.correct + 2 * (n + m) + 2, tally.execs)
        << "n=" << n << " m=" << m;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BlockGrid,
    ::testing::Values(BlockCase{1, 1}, BlockCase{2, 2}, BlockCase{3, 1},
                      BlockCase{1, 5}, BlockCase{7, 4}, BlockCase{20, 11},
                      BlockCase{100, 3}));

TEST(BlockPattern, LoopPredictorMissesWhatBlockCatches)
{
    // n=4, m=3 block pattern: the loop predictor assumes a single
    // opposite outcome, so it mispredicts inside every not-taken block;
    // the block predictor is near perfect.
    auto trace = workload::blockPatternTrace(0x100, 4, 3, 60);
    LoopPredictor loop;
    BlockPatternPredictor block;
    double loop_acc = branchAccuracy(loop, trace, 0x100);
    double block_acc = branchAccuracy(block, trace, 0x100);
    EXPECT_GT(block_acc, 95.0);
    EXPECT_GT(block_acc, loop_acc + 10.0);
}

TEST(BlockPattern, StateAccessor)
{
    BlockPatternPredictor pred;
    auto trace = workload::blockPatternTrace(0x100, 3, 2, 10);
    sim::run(trace, pred);
    BlockState st = pred.state(0x100);
    EXPECT_TRUE(st.seen);
    EXPECT_EQ(st.lastRun[1], 3u);
    EXPECT_EQ(st.lastRun[0], 2u);
}

class FixedK : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FixedK, PerfectOnPeriodKPattern)
{
    unsigned k = GetParam();
    // Build an arbitrary pattern of length k, not all same.
    std::vector<bool> pattern;
    for (unsigned i = 0; i < k; ++i)
        pattern.push_back((i * 7 + 1) % 3 != 0);
    FixedPatternBank bank(1); // one branch: static id 0
    auto trace = workload::periodicTrace(0x100, pattern, 200);
    for (const auto &rec : trace.records())
        bank.observe(0, rec.taken);
    const auto &counts = bank.table()[0];
    // Only the first k predictions (cold ring) may miss.
    EXPECT_GE(counts.correct[k - 1] + k, counts.execs) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Periods, FixedK,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           32u));

TEST(FixedPatternBank, WrongKFailsOnPrimePeriod)
{
    // Period-7 pattern with alternating-ish content: k=3 must do poorly.
    std::vector<bool> pattern = {true, false, true, true, false, false,
                                 true};
    FixedPatternBank bank(1); // one branch: static id 0
    auto trace = workload::periodicTrace(0x100, pattern, 300);
    for (const auto &rec : trace.records())
        bank.observe(0, rec.taken);
    const auto &counts = bank.table()[0];
    EXPECT_LT(100.0 * counts.correct[2] / counts.execs, 80.0);
}

TEST(FixedPatternBank, FindsTheTruePeriod)
{
    std::vector<bool> pattern = {true, true, false, true, false};
    FixedPatternBank bank(1); // one branch: static id 0
    auto trace = workload::periodicTrace(0x100, pattern, 200);
    for (const auto &rec : trace.records())
        bank.observe(0, rec.taken);
    // k = 5 (or a multiple: 10, ...) is optimal; bestK returns the
    // smallest best, which must be a multiple of 5.
    EXPECT_EQ(bank.bestK(0) % 5, 0u);
    EXPECT_GE(bank.bestCorrect(0) + 32, 1000u);
}

TEST(FixedPatternBank, UnseenBranchDefaults)
{
    FixedPatternBank bank(1);
    EXPECT_EQ(bank.bestCorrect(0), 0u);
    EXPECT_EQ(bank.bestK(0), 1u);
}

} // namespace
} // namespace copra::predictor
