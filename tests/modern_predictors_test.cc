/**
 * @file
 * Property tests for the modern predictor roster: perceptron weight
 * saturation and threshold adaptation, TAGE useful-counter aging
 * invariants, tournament chooser convergence, and the tournament's BTB
 * miss model and return-address stack accounting. Batch/scalar
 * equivalence for all three is covered by predictor_contracts_test
 * (every knownPredictors() spec) and the differential harness.
 */

#include <gtest/gtest.h>

#include "predictor/factory.hpp"
#include "predictor/perceptron.hpp"
#include "predictor/tage.hpp"
#include "predictor/tournament.hpp"
#include "predictor/two_level.hpp"
#include "sim/driver.hpp"
#include "util/rng.hpp"
#include "workload/patterns.hpp"

namespace copra::predictor {
namespace {

trace::BranchRecord
cond(uint64_t pc, bool taken)
{
    return {pc, pc + 64, trace::BranchKind::Conditional, taken};
}

// --- Perceptron ------------------------------------------------------

TEST(Perceptron, WeightsStayInsideRails)
{
    PerceptronConfig config;
    config.tableBits = 6;
    config.numTables = 4;
    config.segmentBits = 5;
    config.weightMin = -8;
    config.weightMax = 7;
    Perceptron pred(config);

    // A fully biased branch drives every consulted weight toward the
    // positive rail; training must clamp there, never wrap.
    for (int i = 0; i < 2000; ++i)
        pred.step(cond(0x100, true), true);
    EXPECT_LE(pred.maxAbsWeight(), 8);
    EXPECT_TRUE(pred.step(cond(0x100, true), true));

    // Anti-saturation: reversing the outcome walks the weights off the
    // rail instead of wrapping to the opposite extreme. After a handful
    // of flipped steps the prediction must not yet have moved (a wrap
    // would flip it instantly), and after many it must follow.
    for (int i = 0; i < 3; ++i)
        pred.step(cond(0x100, true), false);
    EXPECT_TRUE(pred.step(cond(0x100, true), false));
    for (int i = 0; i < 2000; ++i)
        pred.step(cond(0x100, true), false);
    EXPECT_FALSE(pred.step(cond(0x100, true), false));
    EXPECT_LE(pred.maxAbsWeight(), 8);
}

TEST(Perceptron, ThresholdAdaptsTowardEquilibrium)
{
    // The Seznec fit is a negative-feedback loop: at equilibrium the
    // mispredict and correct-but-weak rates balance and theta holds
    // still, so the property to test is convergence from BOTH sides.
    PerceptronConfig config;
    config.thetaCounterSat = 4;

    // Started far too low, a noisy branch mispredicts much more often
    // than it trains weakly: theta must rise.
    config.initialTheta = 1;
    Perceptron low(config);
    sim::run(workload::biasedTrace(0x200, 0.9, 20000, 11), low);
    EXPECT_GT(low.stats().thresholdAdapts, 0u);
    EXPECT_GT(low.theta(), 1);

    // Started far too high on a perfectly predictable branch, warmup is
    // all correct-but-weak updates: theta must fall.
    config.initialTheta = 40;
    Perceptron high(config);
    sim::run(workload::biasedTrace(0x300, 1.0, 20000, 12), high);
    EXPECT_GT(high.stats().thresholdAdapts, 0u);
    EXPECT_LT(high.theta(), 40);
    EXPECT_GE(high.theta(), 1);
}

TEST(Perceptron, LearnsLongCorrelation)
{
    // y's outcome is correlated with x many branches back — the shape
    // perceptrons exploit and small two-level tables cannot.
    auto trace = workload::correlatedPairTrace(0x100, 0x200, 0.5, 0.95,
                                               20000, 5);
    Perceptron pred{{}};
    sim::Ledger ledger;
    sim::run(trace, pred, &ledger);
    EXPECT_GT(100.0 * ledger.branch(0x200).accuracy(), 90.0);
}

// --- TAGE ------------------------------------------------------------

TEST(Tage, UsefulCountersBoundedAndAgedOnSchedule)
{
    TageConfig config;
    config.baseBits = 8;
    config.tableBits = 7;
    config.agingPeriod = 4096;
    Tage pred(config);

    Rng rng(99);
    const unsigned useful_cap = 3; // (1 << usefulBits) - 1
    uint64_t updates = 0;
    for (int i = 0; i < 20000; ++i) {
        uint64_t pc = 0x400 + 4 * (rng.next() % 64);
        bool taken = (pc >> 2) % 3 != 0;
        pred.step(cond(pc, taken), taken);
        ++updates;
        ASSERT_LE(pred.maxUseful(), useful_cap);
        ASSERT_EQ(pred.stats().agingEvents, updates / config.agingPeriod);
    }
    EXPECT_GT(pred.stats().agingEvents, 0u);
}

TEST(Tage, AgingHalvesUsefulSum)
{
    TageConfig config;
    config.agingPeriod = 1'000'000'000; // never fires in this test
    Tage pred(config);

    // Prime: correlated branches give the tagged tables an edge over the
    // base bimodal, accruing useful credit. 50000 pairs = 100000 updates.
    auto trace = workload::correlatedPairTrace(0x100, 0x200, 0.5, 0.9,
                                               50000, 3);
    sim::run(trace, pred);
    uint64_t before = pred.usefulSum();
    ASSERT_GT(before, 4u);

    // A fresh predictor whose period lands one aging event on the very
    // last update sees the identical update stream, then one halving.
    TageConfig aged = config;
    aged.agingPeriod = 100000;
    Tage pred2(aged);
    sim::run(trace, pred2);
    EXPECT_EQ(pred2.stats().agingEvents, 1u);
    EXPECT_LE(pred2.usefulSum(), before / 2);
}

TEST(Tage, AllocatesOnMispredictAndUsesTaggedProvider)
{
    auto trace = workload::correlatedPairTrace(0x100, 0x200, 0.5, 0.9,
                                               20000, 7);
    Tage pred{{}};
    sim::Ledger ledger;
    sim::run(trace, pred, &ledger);
    EXPECT_GT(pred.stats().allocations, 0u);
    EXPECT_GT(pred.stats().providerTagged, 0u);
    // The correlated branch is captured by the tagged tables.
    EXPECT_GT(100.0 * ledger.branch(0x200).accuracy(), 85.0);
}

TEST(Tage, BeatsGshareOnMixedSuiteWorkload)
{
    auto corr = workload::correlatedPairTrace(0x100, 0x200, 0.5, 0.9,
                                              20000, 3);
    auto loop = workload::loopTrace(0x300, 20, 1500);
    auto trace = workload::interleave({corr, loop});
    Tage tage{{}};
    TwoLevel gshare(TwoLevelConfig::gshare(12));
    auto t_res = sim::run(trace, tage);
    auto g_res = sim::run(trace, gshare);
    EXPECT_GE(t_res.accuracyPercent(), g_res.accuracyPercent() - 0.5);
}

// --- Tournament ------------------------------------------------------

TEST(Tournament, ChooserConvergesToPerBranchWinner)
{
    // A heavily biased (bimodal-friendly, local side) branch interleaved
    // with a correlated pair (global side): the chooser must learn to
    // route each to the component that predicts it, approaching the
    // per-branch best of the two.
    auto biased = workload::biasedTrace(0x300, 0.98, 20000, 5);
    auto corr = workload::correlatedPairTrace(0x100, 0x200, 0.5, 0.95,
                                              20000, 9);
    auto trace = workload::interleave({biased, corr});

    TournamentConfig config;
    config.btb = BtbConfig::perfect();
    Tournament tournament(config);
    TwoLevel global(TwoLevelConfig::gshare(config.globalHistory));
    TwoLevel local(TwoLevelConfig::pas(config.localHistory,
                                       config.localBhtBits,
                                       config.localSelectBits));

    auto t_res = sim::run(trace, tournament);
    auto g_res = sim::run(trace, global);
    auto l_res = sim::run(trace, local);

    double best = std::max(g_res.accuracyPercent(),
                           l_res.accuracyPercent());
    EXPECT_GT(t_res.accuracyPercent(), best - 1.0);
    EXPECT_GT(tournament.stats().choseGlobal, 0u);
    EXPECT_GT(tournament.stats().choseLocal, 0u);
    EXPECT_GT(tournament.stats().chooserTrains, 0u);
}

TEST(Tournament, BtbMissSquashesTakenPredictions)
{
    // One-entry BTB, many distinct always-taken branches: nearly every
    // taken prediction hits a cold/evicted entry and is squashed to
    // not-taken, costing accuracy a perfect BTB would keep.
    TournamentConfig tiny;
    tiny.btb = BtbConfig::finite(0, 1);
    TournamentConfig perfect;
    perfect.btb = BtbConfig::perfect();

    trace::Trace trace("btb-pressure");
    Rng rng(17);
    for (int i = 0; i < 20000; ++i)
        trace.append(cond(0x1000 + 4 * (rng.next() % 256), true));

    Tournament finite_pred(tiny);
    Tournament perfect_pred(perfect);
    auto f_res = sim::run(trace, finite_pred);
    auto p_res = sim::run(trace, perfect_pred);

    // A perfect BTB only takes compulsory misses: at most one squash
    // per static branch. The one-entry table conflict-misses constantly.
    EXPECT_LE(perfect_pred.stats().btbMissSquashes, 256u);
    EXPECT_GT(finite_pred.stats().btbMissSquashes,
              4 * perfect_pred.stats().btbMissSquashes);
    EXPECT_LT(f_res.accuracyPercent(), p_res.accuracyPercent());
}

TEST(Tournament, ReturnStackAccountsHitsAndUnderflows)
{
    Tournament pred{{}};
    auto call = [](uint64_t pc) {
        return trace::BranchRecord{pc, 0x9000, trace::BranchKind::Call,
                                   true};
    };
    auto ret = [](uint64_t target) {
        return trace::BranchRecord{0x9100, target, trace::BranchKind::Return,
                                   true};
    };

    // A return with no call on the stack underflows.
    pred.observe(ret(0x5004));
    EXPECT_EQ(pred.stats().returnUnderflows, 1u);

    // Matched call/return: the popped fall-through (pc + 4) hits.
    pred.observe(call(0x5000));
    pred.observe(ret(0x5004));
    EXPECT_EQ(pred.stats().returnsSeen, 2u);
    EXPECT_EQ(pred.stats().returnHits, 1u);

    // Nested calls return in LIFO order.
    pred.observe(call(0x6000));
    pred.observe(call(0x7000));
    pred.observe(ret(0x7004));
    pred.observe(ret(0x6004));
    EXPECT_EQ(pred.stats().returnHits, 3u);
    EXPECT_EQ(pred.stats().returnUnderflows, 1u);
}

TEST(Tournament, ReturnStackDepthIsCircular)
{
    TournamentConfig config;
    config.returnStackDepth = 2;
    Tournament pred(config);
    // Three calls overflow a depth-2 stack: the oldest is overwritten,
    // so the third return (to the clobbered frame) misses.
    pred.observe({0x1000, 0x9000, trace::BranchKind::Call, true});
    pred.observe({0x2000, 0x9000, trace::BranchKind::Call, true});
    pred.observe({0x3000, 0x9000, trace::BranchKind::Call, true});
    pred.observe({0x9100, 0x3004, trace::BranchKind::Return, true});
    pred.observe({0x9100, 0x2004, trace::BranchKind::Return, true});
    pred.observe({0x9100, 0x1004, trace::BranchKind::Return, true});
    EXPECT_EQ(pred.stats().returnsSeen, 3u);
    EXPECT_EQ(pred.stats().returnHits, 2u);
}

// --- Factory wiring --------------------------------------------------

TEST(ModernRoster, FactoryBuildsAllThree)
{
    EXPECT_EQ(makePredictor("tage")->name(), Tage{{}}.name());
    EXPECT_EQ(makePredictor("perceptron")->name(), Perceptron{{}}.name());
    EXPECT_EQ(makePredictor("tournament")->name(), Tournament{{}}.name());
    const auto &known = knownPredictors();
    for (const char *spec : {"tage", "perceptron", "tournament"})
        EXPECT_NE(std::find(known.begin(), known.end(), spec), known.end())
            << spec;
}

} // namespace
} // namespace copra::predictor
