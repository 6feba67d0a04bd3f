/**
 * @file
 * Unit tests for the configurable two-level predictor engine: index
 * functions, history scoping, and the signature behaviours (gshare
 * exploits cross-branch correlation; PAs exploits per-branch patterns);
 * plus the gshare misprediction taxonomy, whose shadowed walk must
 * match the engine exactly.
 */

#include <gtest/gtest.h>

#include "core/mispredict_taxonomy.hpp"
#include "predictor/two_level.hpp"
#include "sim/driver.hpp"
#include "workload/patterns.hpp"
#include "workload/profiles.hpp"

namespace copra::predictor {
namespace {

trace::BranchRecord
cond(uint64_t pc, bool taken = true)
{
    return {pc, pc + 64, trace::BranchKind::Conditional, taken};
}

TEST(TwoLevelConfig, FactoriesSetGeometry)
{
    auto g = TwoLevelConfig::gshare(14);
    EXPECT_EQ(g.scope, TwoLevelConfig::Scope::Global);
    EXPECT_EQ(g.index, TwoLevelConfig::Index::Xor);
    EXPECT_EQ(g.historyBits, 14u);
    EXPECT_EQ(g.phtBits, 14u);

    auto p = TwoLevelConfig::pas(10, 8, 3);
    EXPECT_EQ(p.scope, TwoLevelConfig::Scope::PerAddress);
    EXPECT_EQ(p.index, TwoLevelConfig::Index::Concat);
    EXPECT_EQ(p.phtBits, 13u);

    auto gag = TwoLevelConfig::gag(12);
    EXPECT_EQ(gag.index, TwoLevelConfig::Index::HistoryOnly);

    auto pag = TwoLevelConfig::pag(9, 7);
    EXPECT_EQ(pag.scope, TwoLevelConfig::Scope::PerAddress);
    EXPECT_EQ(pag.phtBits, 9u);
}

TEST(TwoLevel, XorIndexMatchesDefinition)
{
    TwoLevel pred(TwoLevelConfig::gshare(8));
    // Drive history to a known value through updates of one branch.
    // History after T,N,T,T = 0b1011.
    pred.update(cond(0x0, true), true);
    pred.update(cond(0x0, true), false);
    pred.update(cond(0x0, true), true);
    pred.update(cond(0x0, true), true);
    uint64_t pc = 0x40; // pc >> 2 = 0x10
    EXPECT_EQ(pred.phtIndex(pc), (0b1011u ^ 0x10u) & 0xFFu);
}

TEST(TwoLevel, HistoryOnlyIndexIgnoresPc)
{
    TwoLevel pred(TwoLevelConfig::gag(6));
    pred.update(cond(0x0), true);
    EXPECT_EQ(pred.phtIndex(0x100), pred.phtIndex(0x2000));
    EXPECT_EQ(pred.phtIndex(0x100), 0b1u);
}

TEST(TwoLevel, ConcatIndexSelectsPerAddressSet)
{
    // GAs with 4-bit history, 2 pc-select bits.
    TwoLevel pred(TwoLevelConfig::gas(4, 2));
    pred.update(cond(0x0), true); // history = 0b0001
    // pc >> 2 low 2 bits select the PHT.
    EXPECT_EQ(pred.phtIndex(0x0), 0b000001u);
    EXPECT_EQ(pred.phtIndex(0x4), 0b010001u);
    EXPECT_EQ(pred.phtIndex(0x8), 0b100001u);
}

TEST(TwoLevel, GlobalHistoryIsSharedAcrossBranches)
{
    TwoLevel pred(TwoLevelConfig::gshare(8));
    size_t before = pred.phtIndex(0x100);
    pred.update(cond(0x999), true); // another branch shifts the history
    EXPECT_NE(pred.phtIndex(0x100), before);
}

TEST(TwoLevel, PerAddressHistoriesAreIsolated)
{
    TwoLevel pred(TwoLevelConfig::pas(8, 6, 2));
    size_t before = pred.phtIndex(0x100);
    // Updating a branch with a different BHT slot leaves 0x100 alone.
    pred.update(cond(0x104), true);
    EXPECT_EQ(pred.phtIndex(0x100), before);
    // Updating 0x100 itself moves it.
    pred.update(cond(0x100), true);
    EXPECT_NE(pred.phtIndex(0x100), before);
}

TEST(TwoLevel, LearnsAlternatingPattern)
{
    TwoLevel pred(TwoLevelConfig::gshare(8));
    auto trace = workload::periodicTrace(0x100, {true, false}, 500);
    auto result = sim::run(trace, pred);
    // After warmup the pattern is fully predictable.
    EXPECT_GT(result.accuracyPercent(), 95.0);
}

TEST(TwoLevel, GshareExploitsCrossBranchCorrelation)
{
    // Fig. 1a: Y random, X = Y's condition AND another. Knowing Y's
    // outcome (in the global history) pins X down far better than X's
    // own bias (62.5% for p1 = p2 = 0.5... exactly: X taken 25%).
    TwoLevel gshare(TwoLevelConfig::gshare(12));
    auto trace =
        workload::correlatedPairTrace(0x100, 0x200, 0.5, 0.5, 20000, 9);
    sim::Ledger ledger;
    sim::run(trace, gshare, &ledger);
    // Branch X: when Y not taken (50%), X is fully determined; when Y
    // taken, X = cond2 (50/50): gshare can reach ~75%+eps on X but a
    // static predictor only 75%... use the stronger check: gshare must
    // beat 80% overall because Y itself is 50% -- no. Check X alone:
    auto x = ledger.branch(0x200);
    // Predicting X: given Y not-taken -> N (perfect, 50% of execs);
    // given Y taken -> bias toward N (75% overall achievable without
    // correlation = max(0.25, 0.75) = 75%; with correlation the Y-taken
    // half is still 50/50 noise -> ceiling 75%). Both equal here, so use
    // correlated conditions instead: p2 = 0.9.
    (void)x;
    TwoLevel gshare2(TwoLevelConfig::gshare(12));
    auto trace2 =
        workload::correlatedPairTrace(0x300, 0x400, 0.5, 0.9, 20000, 9);
    sim::Ledger ledger2;
    sim::run(trace2, gshare2, &ledger2);
    auto x2 = ledger2.branch(0x400);
    // X = Y AND c2 with P(c2)=0.9: static best = max(45%, 55%) = 55%;
    // with Y in history: Y not-taken -> N (perfect), Y taken -> T (90%):
    // ceiling 95%.
    EXPECT_GT(100.0 * x2.accuracy(), 85.0);
}

TEST(TwoLevel, PasExploitsPerBranchPatternUnderGlobalNoise)
{
    // A periodic branch interleaved with a noise branch: the noise
    // scrambles global history but not per-address history.
    auto periodic = workload::periodicTrace(0x100, {true, true, false}, 4000);
    auto noise = workload::biasedTrace(0x200, 0.5, 12000, 17);
    auto trace = workload::interleave({periodic, noise});

    TwoLevel pas(TwoLevelConfig::pas(12, 8, 2));
    sim::Ledger pas_ledger;
    sim::run(trace, pas, &pas_ledger);
    EXPECT_GT(100.0 * pas_ledger.branch(0x100).accuracy(), 97.0);
}

TEST(TwoLevel, ResetRestoresColdState)
{
    TwoLevel pred(TwoLevelConfig::gshare(10));
    auto trace = workload::biasedTrace(0x100, 1.0, 100, 1);
    sim::run(trace, pred);
    EXPECT_TRUE(pred.predict(cond(0x100)));
    pred.reset();
    EXPECT_FALSE(pred.predict(cond(0x100)));
}

class HistoryLengthSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(HistoryLengthSweep, PerfectOnShortEnoughLoops)
{
    // A fixed-trip loop is fully predictable by gshare when the whole
    // period fits in the history.
    unsigned h = GetParam();
    unsigned trip = h; // period = trip fits exactly
    TwoLevel pred(TwoLevelConfig::gshare(h));
    auto trace = workload::loopTrace(0x100, trip, 3000 / trip + 50);
    auto result = sim::run(trace, pred);
    EXPECT_GT(result.accuracyPercent(), 98.0) << "h=" << h;
}

INSTANTIATE_TEST_SUITE_P(Lengths, HistoryLengthSweep,
                         ::testing::Values(4u, 8u, 12u, 16u));

TEST(TwoLevelCounters, OneBitHasNoHysteresisTwoBitDoes)
{
    // Drive both widths through the same sequence: four taken outcomes,
    // one not-taken, then return to the all-taken history context. The
    // 1-bit counter parrots the last outcome seen in that context
    // (not-taken); the 2-bit counter's hysteresis still predicts taken.
    auto run_sequence = [](unsigned bits) {
        TwoLevelConfig config = TwoLevelConfig::gag(2);
        config.counterBits = bits;
        TwoLevel pred(config);
        for (int i = 0; i < 4; ++i)
            pred.update(cond(0x100, true), true);
        pred.update(cond(0x100, true), false); // one deviation at ctx 11
        pred.update(cond(0x100, true), true);  // ctx 10
        pred.update(cond(0x100, true), true);  // ctx 01 -> history 11
        return pred.predict(cond(0x100, true)); // back at ctx 11
    };
    EXPECT_FALSE(run_sequence(1));
    EXPECT_TRUE(run_sequence(2));
}

TEST(TwoLevelCounters, TwoBitSurvivesLoopExitsBetterThanOneBit)
{
    // Smith's classic argument: on a loop, a 1-bit counter mispredicts
    // twice per iteration boundary (the exit and the re-entry), a 2-bit
    // counter once.
    auto trace = workload::loopTrace(0x100, 6, 500);
    TwoLevelConfig one = TwoLevelConfig::gshare(3);
    one.counterBits = 1;
    TwoLevelConfig two = TwoLevelConfig::gshare(3);
    two.counterBits = 2;
    // History 3 < trip 6: the exit is not visible in the pattern, so
    // the counters carry the load.
    TwoLevel pred1(one), pred2(two);
    double acc1 = sim::run(trace, pred1).accuracyPercent();
    double acc2 = sim::run(trace, pred2).accuracyPercent();
    EXPECT_GT(acc2, acc1 + 5.0);
}

TEST(TwoLevelCounters, WidthsSweepStaysConsistent)
{
    auto trace = workload::biasedTrace(0x100, 0.9, 3000, 3);
    for (unsigned bits : {1u, 2u, 3u, 4u, 5u}) {
        TwoLevelConfig config = TwoLevelConfig::gshare(8);
        config.counterBits = bits;
        TwoLevel pred(config);
        double acc = sim::run(trace, pred).accuracyPercent();
        EXPECT_GT(acc, 75.0) << bits;
        EXPECT_LE(acc, 100.0) << bits;
    }
}

TEST(TwoLevelDeath, InvalidGeometryIsFatal)
{
    TwoLevelConfig bad = TwoLevelConfig::gshare(16);
    bad.historyBits = 0;
    EXPECT_EXIT(TwoLevel{bad}, ::testing::ExitedWithCode(1), "history");
    TwoLevelConfig big = TwoLevelConfig::gshare(16);
    big.phtBits = 29;
    EXPECT_EXIT(TwoLevel{big}, ::testing::ExitedWithCode(1), "PHT");
    TwoLevelConfig wide = TwoLevelConfig::gshare(16);
    wide.counterBits = 9;
    EXPECT_EXIT(TwoLevel{wide}, ::testing::ExitedWithCode(1), "counter");
}

TEST(MispredictTaxonomy, CauseNames)
{
    using core::MispredictCause;
    EXPECT_STREQ(core::mispredictCauseName(MispredictCause::Cold),
                 "cold");
    EXPECT_STREQ(
        core::mispredictCauseName(MispredictCause::Interference),
        "interference");
    EXPECT_STREQ(core::mispredictCauseName(MispredictCause::Training),
                 "training");
    EXPECT_STREQ(core::mispredictCauseName(MispredictCause::Noise),
                 "noise");
}

TEST(MispredictTaxonomy, AccuracyMatchesRealGshare)
{
    // The shadowed walk must implement gshare exactly.
    auto trace = workload::makeBenchmarkTrace("compress", 100000, 0);
    auto breakdown = core::classifyMispredicts(trace, 16);
    predictor::TwoLevel gshare(predictor::TwoLevelConfig::gshare(16));
    auto result = sim::run(trace, gshare);
    EXPECT_EQ(breakdown.dynamicBranches, result.dynamicBranches);
    EXPECT_EQ(breakdown.correct, result.correct);
}

TEST(MispredictTaxonomy, CausesPartitionTheMispredicts)
{
    auto trace = workload::makeBenchmarkTrace("gcc", 100000, 0);
    auto breakdown = core::classifyMispredicts(trace, 14);
    uint64_t sum = 0;
    for (uint64_t c : breakdown.byCause)
        sum += c;
    EXPECT_EQ(sum, breakdown.mispredicts());
}

TEST(MispredictTaxonomy, PureNoiseBranchIsMostlyNoise)
{
    auto trace = workload::biasedTrace(0x100, 0.5, 20000, 7);
    auto breakdown = core::classifyMispredicts(trace, 10);
    using core::MispredictCause;
    // A lone coin-flip branch has no interference; its mispredictions
    // are noise (deviations from each context's majority) plus training.
    EXPECT_DOUBLE_EQ(
        breakdown.causeFraction(MispredictCause::Interference) +
            breakdown.causeFraction(MispredictCause::Cold) +
            breakdown.causeFraction(MispredictCause::Training) +
            breakdown.causeFraction(MispredictCause::Noise),
        1.0);
    EXPECT_GT(breakdown.causeFraction(MispredictCause::Noise), 0.4);
    EXPECT_LT(breakdown.causeFraction(MispredictCause::Interference),
              0.05);
}

TEST(MispredictTaxonomy, AliasedBranchesShowInterference)
{
    // Opposite-biased branches thrashing a 16-entry PHT via noisy
    // histories: interference must be a visible cause.
    std::vector<trace::Trace> parts;
    parts.push_back(workload::biasedTrace(0x100, 1.0, 5000, 1));
    parts.push_back(workload::biasedTrace(0x204, 0.5, 5000, 2));
    parts.push_back(workload::biasedTrace(0x140, 0.0, 5000, 3));
    auto trace = workload::interleave(parts);
    // With a 2-bit history the pattern preceding A (noise, B=0) and the
    // pattern preceding B (A=1, noise) overlap at "10", where the
    // opposite-biased branches thrash one shared counter.
    auto breakdown = core::classifyMispredicts(trace, 2);
    EXPECT_GT(breakdown.causeFraction(
                  core::MispredictCause::Interference),
              0.15);
}

TEST(MispredictTaxonomy, PcsFoldingToOneKeyAreDistinctContexts)
{
    // 0x1 and 0x1'0000'0000 share every PHT index (pc >> 2 masks to 0)
    // and fold to the same (pc ^ pc >> 32) << 32 key. With a 1-bit
    // history, A (always taken) and B (always not taken) in the order
    // A B B A hit each shared counter alternately, so every warm miss
    // is the other branch's write: interference, never training or
    // noise.
    const uint64_t a = 0x1;
    const uint64_t b = uint64_t(1) << 32;
    trace::Trace trace("fold");
    for (int i = 0; i < 200; ++i) {
        trace.append(cond(a, true));
        trace.append(cond(b, false));
        trace.append(cond(b, false));
        trace.append(cond(a, true));
    }
    auto breakdown = core::classifyMispredicts(trace, 1);
    auto count = [&](core::MispredictCause cause) {
        return breakdown.byCause[static_cast<size_t>(cause)];
    };
    EXPECT_GT(count(core::MispredictCause::Interference), 300u);
    EXPECT_EQ(count(core::MispredictCause::Training), 0u);
    EXPECT_EQ(count(core::MispredictCause::Noise), 0u);
}

TEST(MispredictTaxonomy, DeterministicBranchHasOnlyWarmupLosses)
{
    auto trace = workload::periodicTrace(0x100, {true, true, false},
                                         5000);
    auto breakdown = core::classifyMispredicts(trace, 12);
    // A fully deterministic pattern: after warmup, zero mispredicts;
    // every loss is cold or training, none is noise.
    EXPECT_GT(breakdown.accuracyPercent(), 99.0);
    EXPECT_EQ(breakdown.byCause[static_cast<size_t>(
                  core::MispredictCause::Noise)],
              0u);
}

} // namespace
} // namespace copra::predictor
