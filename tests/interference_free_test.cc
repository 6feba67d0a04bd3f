/**
 * @file
 * Unit tests for the interference-free gshare and PAs predictors.
 */

#include <gtest/gtest.h>

#include "predictor/interference_free.hpp"
#include "predictor/two_level.hpp"
#include "sim/driver.hpp"
#include "workload/patterns.hpp"

namespace copra::predictor {
namespace {

trace::BranchRecord
cond(uint64_t pc, bool taken = true)
{
    return {pc, pc + 64, trace::BranchKind::Conditional, taken};
}

TEST(IfGshare, NoCrossBranchInterference)
{
    // Two branches trained in opposite directions under identical global
    // histories must not disturb each other. Alternate A-taken, B-not
    // so each sees the same history at prediction time eventually.
    IfGshare pred(4);
    for (int i = 0; i < 50; ++i) {
        pred.step(cond(0x100, true), true);
        pred.step(cond(0x200, false), false);
    }
    // The history preceding A is ...TNTN (B last); preceding B is ...T.
    EXPECT_TRUE(pred.step(cond(0x100), true));
    EXPECT_FALSE(pred.step(cond(0x200), false));
}

TEST(IfGshare, AllocatesPerPatternCounters)
{
    IfGshare pred(4);
    EXPECT_EQ(pred.countersAllocated(), 0u);
    pred.step(cond(0x100), true);
    EXPECT_EQ(pred.countersAllocated(), 1u);
    pred.step(cond(0x100), true); // history changed -> new counter
    EXPECT_EQ(pred.countersAllocated(), 2u);
}

TEST(IfGshare, LearnsCorrelationExactly)
{
    IfGshare pred(8);
    auto trace =
        workload::correlatedPairTrace(0x100, 0x200, 0.5, 1.0, 10000, 3);
    sim::Ledger ledger;
    sim::run(trace, pred, &ledger);
    // X == Y exactly (p2 = 1.0): the interference-free predictor should
    // predict X almost perfectly after warmup.
    EXPECT_GT(100.0 * ledger.branch(0x200).accuracy(), 98.0);
}

TEST(IfGshare, PcsFoldingToOneKeyAreDistinctBranches)
{
    // pc 0x3 and 0xffff'ffff'ffff'fffc fold to one value under
    // pc ^ (pc >> 32); 0x3 and 0x1'0000'0003 share their low 32 bits.
    // Train 0x3 taken at history 0, bring the history back to 0, and
    // each other pc's counter must still be cold (weakly not-taken)
    // while 0x3 predicts taken. Not-taken steps keep the 1-bit history
    // at 0.
    IfGshare pred(1);
    pred.step(cond(0x3), true);
    pred.step(cond(0x100, false), false);
    EXPECT_FALSE(pred.step(cond(0xffff'ffff'ffff'fffcull), false));
    EXPECT_FALSE(pred.step(cond(0x1'0000'0003ull), false));
    EXPECT_TRUE(pred.step(cond(0x3), true));
    // (0x3, 0), (0x100, 1) and one counter for each folding pc.
    EXPECT_EQ(pred.countersAllocated(), 4u);
}

TEST(IfGshare, NameMentionsHistory)
{
    EXPECT_EQ(IfGshare(16).name(), "IF-gshare(h=16)");
}

TEST(IfPas, LearnsPeriodicPatternPerBranch)
{
    IfPas pred(8);
    auto trace = workload::periodicTrace(0x100, {true, true, false}, 2000);
    auto result = sim::run(trace, pred);
    EXPECT_GT(result.accuracyPercent(), 98.0);
}

TEST(IfPas, ImmuneToGlobalNoise)
{
    // Unlike a global predictor, IF PAs sees only the branch's own
    // outcomes, so interleaved noise branches change nothing about the
    // periodic branch's accuracy.
    auto periodic = workload::periodicTrace(0x100, {true, false}, 3000);
    auto noise = workload::biasedTrace(0x200, 0.5, 3000, 5);

    IfPas clean(12);
    sim::Ledger clean_ledger;
    sim::run(periodic, clean, &clean_ledger);

    IfPas noisy(12);
    sim::Ledger noisy_ledger;
    sim::run(workload::interleave({periodic, noise}), noisy,
             &noisy_ledger);

    EXPECT_EQ(clean_ledger.branch(0x100).correct,
              noisy_ledger.branch(0x100).correct);
}

TEST(IfPas, TracksBranchesIndependently)
{
    IfPas pred(8);
    EXPECT_EQ(pred.branchesTracked(), 0u);
    pred.step(cond(0x100), true);
    pred.step(cond(0x200), false);
    EXPECT_EQ(pred.branchesTracked(), 2u);
}

TEST(IfPas, CannotSeePastItsHistoryLength)
{
    // A loop longer than the per-branch history cannot have its exit
    // predicted: the all-taken history is ambiguous (paper §4.2.2).
    IfPas pred(8);
    auto trace = workload::loopTrace(0x100, 20, 400);
    sim::Ledger ledger;
    sim::run(trace, pred, &ledger);
    double acc = 100.0 * ledger.branch(0x100).accuracy();
    // It predicts the body perfectly but misses every exit: 19/20.
    EXPECT_LT(acc, 96.5);
    EXPECT_GT(acc, 90.0);
}

TEST(IfPas, SeesExitOfShortLoops)
{
    IfPas pred(8);
    auto trace = workload::loopTrace(0x100, 6, 1000);
    sim::Ledger ledger;
    sim::run(trace, pred, &ledger);
    EXPECT_GT(100.0 * ledger.branch(0x100).accuracy(), 98.0);
}

TEST(IfPas, PcsFoldingToOneKeyAreDistinctBranches)
{
    // pc 0x3 and 0xffff'ffff'ffff'fffc fold to one value under
    // pc ^ (pc >> 32); each still owns a private PHT. Training the first
    // must leave the second's cold counter weakly not-taken.
    IfPas pred(12);
    pred.step(cond(0x3), true);
    EXPECT_FALSE(pred.step(cond(0xffff'ffff'ffff'fffcull), true));
    EXPECT_EQ(pred.branchesTracked(), 2u);
}

TEST(InterferenceContrast, IfPredictorBeatsSharedPhtUnderForcedAliasing)
{
    // Force destructive PHT interference: with a 2-bit history-only
    // index (GAg) and the rotation A, noise, B, the pattern "A=1,n"
    // preceding B and the pattern "n,B=0" preceding A overlap at "10",
    // so the always-taken A and never-taken B thrash one shared counter
    // whenever the noise bit lines up. Keying by (pc, history) — the
    // interference-free construction — removes exactly that loss.
    auto a = workload::biasedTrace(0x100, 1.0, 4000, 1);
    auto b = workload::biasedTrace(0x140, 0.0, 4000, 2);
    auto noise = workload::biasedTrace(0x204, 0.5, 4000, 3);
    auto trace = workload::interleave({a, noise, b});

    TwoLevel shared(TwoLevelConfig::gag(2));
    IfGshare clean(2);
    auto shared_res = sim::run(trace, shared);
    auto clean_res = sim::run(trace, clean);
    EXPECT_GT(clean_res.accuracyPercent(),
              shared_res.accuracyPercent() + 5.0);
}

} // namespace
} // namespace copra::predictor
