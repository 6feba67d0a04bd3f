/**
 * @file
 * Unit tests for the per-address class predictors: loop, block-pattern,
 * and the PA classifier's fixed-length-pattern scores (paper §4.1).
 */

#include <gtest/gtest.h>

#include "core/pa_class.hpp"
#include "predictor/block_pattern.hpp"
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

/**
 * The classifier's best fixed-length-pattern result for the single
 * conditional branch at 0x100 of @p trace.
 */
core::PaBranchResult
fixedResult(const trace::Trace &trace)
{
    const core::PaClassifier classifier(trace);
    const core::PaBranchResult *res = classifier.branch(0x100);
    EXPECT_NE(res, nullptr);
    return res ? *res : core::PaBranchResult{};
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
    const core::PaBranchResult res =
        fixedResult(workload::periodicTrace(0x100, pattern, 200));
    // Only the first k predictions (warm-up) may miss, and no longer
    // period does better than k.
    EXPECT_GE(res.fixedCorrect + k, res.execs) << "k=" << k;
    EXPECT_LE(res.bestFixedK, k) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Periods, FixedK,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           32u));

TEST(FixedPatternClass, WrongKFailsOnPrimePeriod)
{
    // Period-7 pattern with alternating-ish content: no k below 7 ties
    // the true period.
    std::vector<bool> pattern = {true, false, true, true, false, false,
                                 true};
    const core::PaBranchResult res =
        fixedResult(workload::periodicTrace(0x100, pattern, 300));
    EXPECT_EQ(res.bestFixedK, 7u);
    EXPECT_GE(res.fixedCorrect + 7, res.execs);
}

TEST(FixedPatternClass, FindsTheTruePeriod)
{
    std::vector<bool> pattern = {true, true, false, true, false};
    const core::PaBranchResult res =
        fixedResult(workload::periodicTrace(0x100, pattern, 200));
    // k = 5 and its multiples are optimal; bestFixedK is the smallest.
    EXPECT_EQ(res.bestFixedK, 5u);
    EXPECT_GE(res.fixedCorrect + 32, 1000u);
}

TEST(FixedPatternClass, OneExecutionIsAllWarmUp)
{
    // Every k predicts taken for a branch's first execution: one hit
    // when it is taken, none when it is not, and k = 1 is the first
    // maximum either way.
    for (bool taken : {true, false}) {
        trace::Trace t("once", 1);
        t.append(cond(0x100, taken));
        const core::PaBranchResult res = fixedResult(t);
        EXPECT_EQ(res.execs, 1u);
        EXPECT_EQ(res.fixedCorrect, taken ? 1u : 0u);
        EXPECT_EQ(res.bestFixedK, 1u);
    }
}

} // namespace
} // namespace copra::predictor
