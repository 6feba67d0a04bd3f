/**
 * @file
 * Unit tests for the per-address predictability classification engine
 * (paper §4).
 */

#include <gtest/gtest.h>

#include "core/pa_class.hpp"
#include "util/rng.hpp"
#include "workload/patterns.hpp"

namespace copra::core {
namespace {

using trace::BranchKind;

TEST(PaClassName, AllNamesDefined)
{
    EXPECT_STREQ(paClassName(PaClass::IdealStatic), "ideal-static");
    EXPECT_STREQ(paClassName(PaClass::Loop), "loop");
    EXPECT_STREQ(paClassName(PaClass::Repeating), "repeating");
    EXPECT_STREQ(paClassName(PaClass::NonRepeating), "non-repeating");
}

TEST(PaClassifier, LoopBranchIsLoopClass)
{
    auto trace = workload::loopTrace(0x100, 9, 300);
    PaClassifier classifier(trace);
    const PaBranchResult *res = classifier.branch(0x100);
    ASSERT_NE(res, nullptr);
    EXPECT_EQ(res->cls, PaClass::Loop);
    // The loop predictor is near perfect; the static predictor caps at
    // the body fraction 8/9.
    EXPECT_GT(res->loopCorrect, res->staticCorrect);
}

TEST(PaClassifier, WhileBranchIsLoopClass)
{
    auto trace = workload::whileTrace(0x100, 7, 300);
    PaClassifier classifier(trace);
    EXPECT_EQ(classifier.branch(0x100)->cls, PaClass::Loop);
}

TEST(PaClassifier, BlockPatternIsRepeatingClass)
{
    auto trace = workload::blockPatternTrace(0x100, 40, 37, 80);
    PaClassifier classifier(trace);
    const PaBranchResult *res = classifier.branch(0x100);
    // Block patterns defeat the loop predictor (two long runs) and the
    // 12-bit IF-PAs history (period 77 >> 12), but the block predictor
    // nails them.
    EXPECT_EQ(res->cls, PaClass::Repeating);
    EXPECT_GT(res->blockCorrect, res->ifPasCorrect);
}

TEST(PaClassifier, PrimePeriodPatternIsRepeatingClass)
{
    // A period-29 irregular pattern: fixed-k (k=29) catches it; the loop
    // and block predictors see irregular runs; IF-PAs h=12 sees only a
    // 12-outcome window of a 29-period signal (learnable, but fixed-k is
    // exact). Use a pattern whose 12-bit windows are ambiguous: embed
    // two identical 12-windows with different successors.
    std::vector<bool> pattern(29, false);
    // Two copies of the same 13-bit prefix with different next bits.
    for (int i = 0; i < 13; ++i) {
        pattern[static_cast<size_t>(i)] = (i % 3) == 0;
        pattern[static_cast<size_t>(i + 14)] = (i % 3) == 0;
    }
    pattern[13] = true;
    pattern[27] = false;
    pattern[28] = true;
    auto trace = workload::periodicTrace(0x100, pattern, 200);
    PaClassifier classifier(trace);
    const PaBranchResult *res = classifier.branch(0x100);
    EXPECT_EQ(res->cls, PaClass::Repeating);
    EXPECT_EQ(res->bestFixedK, 29u);
}

TEST(PaClassifier, DeterministicRecurrenceIsNonRepeating)
{
    // A degree-6 LFSR bit stream has period 63 — beyond fixed-k's reach
    // (k <= 32) and far beyond the loop/block predictors' single-run
    // model — but each outcome is a deterministic function of the
    // previous six, so IF-PAs (h = 12) learns it exactly. This is the
    // paper's non-repeating-pattern class (§4.1.3).
    trace::Trace t("lfsr6");
    uint32_t lfsr = 0b100101;
    for (int i = 0; i < 8000; ++i) {
        bool bit = ((lfsr >> 0) ^ (lfsr >> 1)) & 1u; // taps 6,5
        lfsr = (lfsr >> 1) | (static_cast<uint32_t>(bit) << 5);
        t.append({0x100, 0x180, BranchKind::Conditional, bit});
    }
    PaClassifier classifier(t);
    const PaBranchResult *res = classifier.branch(0x100);
    ASSERT_NE(res, nullptr);
    EXPECT_GT(100.0 * res->ifPasCorrect / res->execs, 98.0);
    EXPECT_EQ(res->cls, PaClass::NonRepeating);
}

TEST(PaClassifier, MarkovNoiseIsDynamicallyPredictable)
{
    // A sticky Markov branch is best predicted by "same as last
    // outcome". Both fixed-k (k = 1) and IF-PAs capture that, so the
    // branch lands in a dynamic pattern class — never static or loop.
    trace::Trace t("markov");
    Rng rng(21);
    bool state = false;
    for (int i = 0; i < 8000; ++i) {
        state = state ? rng.bernoulli(0.85) : rng.bernoulli(0.15);
        t.append({0x100, 0x180, BranchKind::Conditional, state});
    }
    PaClassifier classifier(t);
    const PaBranchResult *res = classifier.branch(0x100);
    EXPECT_TRUE(res->cls == PaClass::NonRepeating ||
                res->cls == PaClass::Repeating)
        << paClassName(res->cls);
    // The winning dynamic predictor beats the 50% static floor clearly.
    EXPECT_GT(100.0 * res->bestDynamicCorrect() / res->execs, 75.0);
}

TEST(PaClassifier, StronglyBiasedBranchIsIdealStatic)
{
    auto trace = workload::biasedTrace(0x100, 0.997, 5000, 9);
    PaClassifier classifier(trace);
    EXPECT_EQ(classifier.branch(0x100)->cls, PaClass::IdealStatic);
}

TEST(PaClassifier, UnstructuredBiasedBranchIsIdealStatic)
{
    // An i.i.d. 60%-taken branch: every dynamic scheme degenerates to
    // (at best) the majority direction, so the branch stays
    // unclassified (the paper's "simply not predictable" remainder,
    // §4.2.1). Exactly 50/50 noise is avoided here because on finite
    // samples the max over 32 fixed-k predictors wins coin-flip noise
    // edges -- an inherent property of best-of classification.
    auto trace = workload::biasedTrace(0x100, 0.6, 8000, 31);
    PaClassifier classifier(trace);
    EXPECT_EQ(classifier.branch(0x100)->cls, PaClass::IdealStatic);
}

TEST(PaClassifier, ClassFractionsAreDynamicWeighted)
{
    auto loop = workload::loopTrace(0x100, 5, 600);    // 3000 execs
    auto biased = workload::biasedTrace(0x200, 1.0, 1000, 3);
    auto trace = workload::interleave({loop, biased});
    PaClassifier classifier(trace);
    auto fractions = classifier.classFractions();
    EXPECT_NEAR(fractions[static_cast<size_t>(PaClass::Loop)],
                3000.0 / 4000.0, 0.01);
    EXPECT_NEAR(fractions[static_cast<size_t>(PaClass::IdealStatic)],
                1000.0 / 4000.0, 0.01);
    double sum = 0;
    for (double f : fractions)
        sum += f;
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(PaClassifier, StaticBucketBiasFraction)
{
    // Two static-class branches: one 99.9% biased, one 75% biased.
    auto hot = workload::biasedTrace(0x100, 0.999, 3000, 5);
    auto coin = workload::biasedTrace(0x200, 0.75, 3000, 7);
    auto trace = workload::interleave({hot, coin});
    PaClassifier classifier(trace);
    ASSERT_EQ(classifier.branch(0x100)->cls, PaClass::IdealStatic);
    ASSERT_EQ(classifier.branch(0x200)->cls, PaClass::IdealStatic);
    EXPECT_NEAR(classifier.staticBucketBiasFraction(0.99), 0.5, 0.02);
}

TEST(PaClassifier, LedgersExposePerBranchCounts)
{
    auto trace = workload::loopTrace(0x100, 6, 200);
    PaClassifier classifier(trace);
    const PaBranchResult *res = classifier.branch(0x100);
    EXPECT_EQ(classifier.loopLedger().branch(0x100).correct,
              res->loopCorrect);
    EXPECT_EQ(classifier.ifPasLedger().branch(0x100).correct,
              res->ifPasCorrect);
    EXPECT_EQ(classifier.bestPaLedger().branch(0x100).correct,
              res->bestDynamicCorrect());
}

TEST(PaClassifier, LoopEnhancementUsesLoopForLoopClassOnly)
{
    // Loop branch + biased branch; the base ledger is deliberately poor
    // on the loop branch and perfect on the biased one.
    auto loop = workload::loopTrace(0x100, 5, 200); // 1000 execs
    auto biased = workload::biasedTrace(0x200, 1.0, 1000, 3);
    auto trace = workload::interleave({loop, biased});
    PaClassifier classifier(trace);

    sim::Ledger base(
        {{0x100, {1000, 500, classifier.branch(0x100)->taken}},
         {0x200, {1000, 1000, 1000}}});

    double enhanced = classifier.loopEnhancedAccuracyPercent(base);
    uint64_t loop_correct = classifier.branch(0x100)->loopCorrect;
    double expected = 100.0 *
        static_cast<double>(loop_correct + 1000) / 2000.0;
    EXPECT_NEAR(enhanced, expected, 1e-9);
}

TEST(PaClassifierDeath, MismatchedBaseLedgerPanics)
{
    auto trace = workload::loopTrace(0x100, 5, 10);
    PaClassifier classifier(trace);
    sim::Ledger base({{0x100, {7, 7, 7}}}); // wrong exec count
    EXPECT_DEATH(classifier.loopEnhancedAccuracyPercent(base),
                 "different");
}

TEST(PaClassifierDeath, BaseLedgerWithExtraBranchPanics)
{
    auto trace = workload::loopTrace(0x100, 5, 10);
    PaClassifier classifier(trace);
    const PaBranchResult &res = *classifier.branch(0x100);
    sim::Ledger base({{0x100, {res.execs, res.execs, res.taken}},
                      {0x200, {10, 10, 10}}});
    EXPECT_DEATH(classifier.loopEnhancedAccuracyPercent(base),
                 "different");
}

TEST(PaClassifier, MixedWorkloadCoversAllClasses)
{
    auto loop = workload::loopTrace(0x100, 11, 400);
    auto block = workload::blockPatternTrace(0x200, 50, 45, 50);
    auto biased = workload::biasedTrace(0x300, 0.999, 4000, 3);
    trace::Trace lfsr_trace("m");
    uint32_t lfsr = 0b110001;
    for (int i = 0; i < 4000; ++i) {
        bool bit = ((lfsr >> 0) ^ (lfsr >> 1)) & 1u;
        lfsr = (lfsr >> 1) | (static_cast<uint32_t>(bit) << 5);
        lfsr_trace.append({0x400, 0x480, BranchKind::Conditional, bit});
    }
    auto trace = workload::interleave({loop, block, biased, lfsr_trace});
    PaClassifier classifier(trace);
    EXPECT_EQ(classifier.branch(0x100)->cls, PaClass::Loop);
    EXPECT_EQ(classifier.branch(0x200)->cls, PaClass::Repeating);
    EXPECT_EQ(classifier.branch(0x300)->cls, PaClass::IdealStatic);
    EXPECT_EQ(classifier.branch(0x400)->cls, PaClass::NonRepeating);
}

} // namespace
} // namespace copra::core
