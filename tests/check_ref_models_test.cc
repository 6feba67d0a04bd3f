/**
 * @file
 * Unit tests for the reference models themselves: cold-start defaults,
 * table semantics on tiny hand-written traces, and spot agreement with
 * the optimized implementations on short streams (full-scale agreement
 * is the differential suite's job; here we pin the *reference* side so
 * a bug cannot hide in both implementations at once).
 */

#include <gtest/gtest.h>

#include <vector>

#include "check/fuzz.hpp"
#include "check/ref_models.hpp"
#include "core/pa_class.hpp"
#include "predictor/bimodal.hpp"
#include "predictor/loop_predictor.hpp"
#include "predictor/two_level.hpp"
#include "sim/driver.hpp"
#include "util/rng.hpp"

namespace copra::check {
namespace {

using predictor::TwoLevelConfig;
using trace::BranchKind;
using trace::BranchRecord;

BranchRecord
cond(uint64_t pc, bool taken)
{
    return {pc, pc + 8, BranchKind::Conditional, taken};
}

TEST(RefTwoLevel, ColdStartPredictsNotTaken)
{
    // Counters initialize weakly-not-taken for every width.
    for (unsigned cbits : {1u, 2u, 3u}) {
        TwoLevelConfig config = TwoLevelConfig::gshare(8);
        config.counterBits = cbits;
        RefTwoLevel ref(config);
        EXPECT_FALSE(ref.step(cond(0x100, true), true))
            << "cbits=" << cbits;
    }
}

TEST(RefTwoLevel, LearnsAlternationThroughHistory)
{
    // With history indexing, a strictly alternating branch becomes
    // perfectly predictable once the counters for both history patterns
    // are trained; a plain counter never gets there.
    RefTwoLevel ref(TwoLevelConfig::gshare(4));
    bool taken = true;
    int correct_tail = 0;
    for (int i = 0; i < 200; ++i) {
        bool p = ref.step(cond(0x40, taken), taken);
        if (i >= 150 && p == taken)
            ++correct_tail;
        taken = !taken;
    }
    EXPECT_EQ(correct_tail, 50) << "alternation must become perfect";
}

TEST(RefTwoLevel, PerAddressScopeKeepsHistoriesSeparate)
{
    // Two branches in different BHT rows must not share history: train
    // pc A heavily, then check pc B still sees a cold table.
    TwoLevelConfig config = TwoLevelConfig::pas(6, 4, 2);
    RefTwoLevel ref(config);
    for (int i = 0; i < 64; ++i)
        ref.step(cond(0x100, true), true);
    // 0x100 >> 2 = 0x40 -> row 0; 0x104 >> 2 = 0x41 -> row 1.
    // Row 1's history is still zero; its pattern counter is untouched
    // only if the PHT index differs, which the pc select bits ensure.
    EXPECT_FALSE(ref.step(cond(0x104, true), true));
}

TEST(RefTwoLevel, AgreesWithOptimizedOnShortStream)
{
    for (const TwoLevelConfig &config :
         {TwoLevelConfig::gshare(5), TwoLevelConfig::gag(4),
          TwoLevelConfig::gas(4, 2), TwoLevelConfig::pas(4, 3, 2),
          TwoLevelConfig::pag(4, 3)}) {
        predictor::TwoLevel opt(config);
        RefTwoLevel ref(config);
        uint64_t state = 0x1234 ^ config.phtBits;
        for (int i = 0; i < 500; ++i) {
            uint64_t pc = (splitmix64(state) % 32) * 4;
            bool taken = splitmix64(state) & 1;
            BranchRecord br = cond(pc, taken);
            EXPECT_EQ(ref.step(br, taken), opt.step(br, taken))
                << config.label << " diverged at branch " << i;
        }
    }
}

TEST(RefBimodal, MatchesTwoBitCounterSemantics)
{
    RefBimodal ref(4);
    BranchRecord br = cond(0x20, true);
    EXPECT_FALSE(ref.step(br, true)); // init weakly-not-taken; 1 -> 2
    EXPECT_TRUE(ref.step(br, false)); // 2 crosses the threshold; -> 1
    EXPECT_FALSE(ref.step(br, true)); // back to 1; -> 2
    // Saturation at 3: two not-takens needed to flip after 2 takens.
    ref.step(br, true);
    ref.step(br, false);
    EXPECT_TRUE(ref.step(br, true));
}

TEST(RefBimodal, AliasesExactlyLikeOptimized)
{
    predictor::Bimodal opt(3);
    RefBimodal ref(3);
    // 16 pcs over an 8-entry table: every counter is shared by two pcs.
    uint64_t state = 99;
    for (int i = 0; i < 400; ++i) {
        uint64_t pc = (splitmix64(state) % 16) * 4;
        bool taken = splitmix64(state) & 1;
        BranchRecord br = cond(pc, taken);
        ASSERT_EQ(ref.step(br, taken), opt.step(br, taken)) << "branch " << i;
    }
}

TEST(RefLoop, PerfectOnFixedTripLoopAfterOneTrip)
{
    RefLoop ref;
    const int trip = 7;
    int mispredicts_after_warmup = 0;
    for (int iter = 0; iter < 20; ++iter) {
        for (int i = 0; i < trip + 1; ++i) {
            bool taken = i < trip; // for-type: taken trip times, then exit
            BranchRecord br = cond(0x500, taken);
            bool p = ref.step(br, taken);
            if (iter >= 2 && p != taken)
                ++mispredicts_after_warmup;
        }
    }
    EXPECT_EQ(mispredicts_after_warmup, 0);
}

TEST(RefLoop, MatchesOptimizedOnWhileTypeBranch)
{
    predictor::LoopPredictor opt;
    RefLoop ref;
    // while-type: not-taken n times, then taken once; n drifts.
    for (int n : {3, 3, 4, 4, 4, 2, 5}) {
        for (int i = 0; i <= n; ++i) {
            bool taken = i == n;
            BranchRecord br = cond(0x700, taken);
            ASSERT_EQ(ref.step(br, taken), opt.step(br, taken))
                << "n=" << n << " i=" << i;
        }
    }
}

TEST(RefFixedPattern, ReplaysOutcomeFromKAgo)
{
    RefFixedPattern ref(3);
    const bool pattern[] = {true, false, false};
    BranchRecord br = cond(0x900, true);
    // Cold default: taken until 3 outcomes recorded.
    for (int i = 0; i < 3; ++i) {
        EXPECT_TRUE(ref.step(br, pattern[i % 3]));
    }
    // Warm: perfect on the period-3 pattern.
    for (int i = 3; i < 60; ++i) {
        EXPECT_EQ(ref.step(br, pattern[i % 3]), pattern[i % 3])
            << "i=" << i;
    }
}

TEST(RefFixedPattern, MatchesTheClassifiersBestFixedK)
{
    // PaClassifier (figs. 6 and 8, table 3) scores each branch by its
    // best fixed-length pattern, k = 1..32, from XOR and popcount of
    // the branch's outcome stream; the reference is the single-k
    // definition, cold "taken" default included. Per branch, the best
    // reference count and its smallest k must be the classifier's.
    const unsigned kMax = core::PaClassifier::kMaxFixedK;
    uint64_t long_branches = 0;
    for (uint64_t seed = 0; seed < 20; ++seed) {
        trace::Trace t = fuzzTrace(seed, 1500);
        const core::PaClassifier classifier(t);
        std::vector<sim::Ledger> ledgers(kMax);
        for (unsigned k = 1; k <= kMax; ++k) {
            RefFixedPattern ref(k);
            sim::run(t, ref, &ledgers[k - 1]);
        }
        const auto &rows = classifier.branches();
        for (const sim::Ledger &ledger : ledgers)
            ASSERT_EQ(ledger.table().size(), rows.size()) << "seed=" << seed;
        for (size_t i = 0; i < rows.size(); ++i) {
            const auto &[pc, res] = rows[i];
            uint64_t best = 0;
            unsigned best_k = 1;
            for (unsigned k = 1; k <= kMax; ++k) {
                const auto &[ref_pc, tally] = ledgers[k - 1].table()[i];
                ASSERT_EQ(ref_pc, pc);
                ASSERT_EQ(tally.execs, res.execs) << "pc=" << pc;
                if (tally.correct > best) {
                    best = tally.correct;
                    best_k = k;
                }
            }
            ASSERT_EQ(res.fixedCorrect, best) << "seed=" << seed << " pc=" << pc;
            ASSERT_EQ(res.bestFixedK, best_k)
                << "seed=" << seed << " pc=" << pc;
            if (res.execs > kMax)
                ++long_branches;
        }
    }
    // The warm path of k = 31 and 32 is only compared on branches that
    // run past their cold prefix.
    EXPECT_GT(long_branches, 20u);
}

} // namespace
} // namespace copra::check
