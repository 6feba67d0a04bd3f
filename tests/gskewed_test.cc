/**
 * @file
 * Unit tests for the skewed predictor (Seznec 1997, paper ref. [7]) and
 * the gshare misprediction taxonomy.
 */

#include <gtest/gtest.h>

#include "core/mispredict_taxonomy.hpp"
#include "predictor/gskewed.hpp"
#include "predictor/two_level.hpp"
#include "sim/driver.hpp"
#include "util/rng.hpp"
#include "workload/patterns.hpp"
#include "workload/profiles.hpp"

namespace copra {
namespace {

using predictor::GSkewed;
using trace::BranchKind;

trace::BranchRecord
cond(uint64_t pc, bool taken)
{
    return {pc, pc + 64, BranchKind::Conditional, taken};
}

TEST(GSkewed, BanksUseDistinctIndexFunctions)
{
    GSkewed pred(8, 10);
    // The three banks should map a pc to (almost always) different
    // indices; certainly not all equal for many pcs.
    int all_equal = 0;
    for (uint64_t pc = 0x100; pc < 0x100 + 400; pc += 4) {
        size_t a = pred.bankIndex(0, pc);
        size_t b = pred.bankIndex(1, pc);
        size_t c = pred.bankIndex(2, pc);
        if (a == b && b == c)
            ++all_equal;
    }
    EXPECT_EQ(all_equal, 0);
}

TEST(GSkewed, LearnsBiasAndPatterns)
{
    GSkewed pred(12, 12);
    auto biased = workload::biasedTrace(0x100, 0.97, 3000, 5);
    EXPECT_GT(sim::run(biased, pred).accuracyPercent(), 92.0);
    pred.reset();
    auto periodic = workload::periodicTrace(0x200, {true, false}, 2000);
    EXPECT_GT(sim::run(periodic, pred).accuracyPercent(), 95.0);
}

TEST(GSkewed, MajorityVoteOutvotesSingleBankAlias)
{
    // Construct heavy aliasing pressure for a tiny predictor: many
    // opposite-biased branches plus noise. The skewed majority vote
    // must beat a single-bank gshare with the same total storage
    // (3 * 2^7 counters vs 2^9 counters).
    std::vector<trace::Trace> parts;
    for (int b = 0; b < 24; ++b) {
        parts.push_back(workload::biasedTrace(
            0x1000 + 4u * static_cast<unsigned>(b),
            b % 2 ? 0.98 : 0.02, 2000, static_cast<uint64_t>(b) + 3));
    }
    parts.push_back(workload::biasedTrace(0x5000, 0.5, 2000, 99));
    auto trace = workload::interleave(parts);

    GSkewed skewed(9, 7);
    predictor::TwoLevel gshare(predictor::TwoLevelConfig::gshare(9));
    double skewed_acc = sim::run(trace, skewed).accuracyPercent();
    double gshare_acc = sim::run(trace, gshare).accuracyPercent();
    EXPECT_GT(skewed_acc, gshare_acc);
}

TEST(GSkewed, ResetForgets)
{
    GSkewed pred(8, 8);
    for (int i = 0; i < 10; ++i)
        pred.update(cond(0x100, true), true);
    pred.reset();
    EXPECT_FALSE(pred.predict(cond(0x100, true)));
}

TEST(GSkewed, NameMentionsGeometry)
{
    EXPECT_EQ(GSkewed(16, 14).name(), "gskewed(h=16,3x2^14)");
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
} // namespace copra
