/**
 * @file
 * Tests for the hard-to-predict branch analysis (core/h2p.hpp): the
 * Lin-Tarsa membership criterion, misprediction-CDF invariants,
 * per-branch best-of dominance, cross-seed stability, and a pinned H2P
 * set for one seeded workload so unintentional changes to the roster or
 * the criterion are loud.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>

#include "core/h2p.hpp"
#include "predictor/factory.hpp"
#include "sim/driver.hpp"
#include "workload/profiles.hpp"

namespace copra::core {
namespace {

sim::Ledger
ledgerOf(std::initializer_list<std::tuple<uint64_t, uint64_t, uint64_t>>
             rows)
{
    PcRows<sim::BranchTally> out;
    for (const auto &[pc, execs, correct] : rows)
        out.emplace_back(pc, sim::BranchTally{execs, correct, execs / 2});
    return sim::Ledger(std::move(out));
}

TEST(IdentifyH2p, AppliesBothCriteriaAndSortsByContribution)
{
    sim::Ledger ledger = ledgerOf({
        {0x100, 2000, 1900}, // H2P: 95% accuracy, 100 mispredicts
        {0x200, 999, 500},   // below exec floor despite 50% accuracy
        {0x300, 5000, 4990}, // 99.8% accurate: not hard
        {0x400, 1000, 950},  // H2P: 95%, 50 mispredicts
    });
    H2pReport report = identifyH2p(ledger);
    ASSERT_EQ(report.branches.size(), 2u);
    EXPECT_EQ(report.branches[0].pc, 0x100u);
    EXPECT_EQ(report.branches[0].mispredicts, 100u);
    EXPECT_EQ(report.branches[1].pc, 0x400u);
    EXPECT_EQ(report.staticBranches, 4u);
    EXPECT_EQ(report.dynamicBranches, 2000u + 999 + 5000 + 1000);
    EXPECT_EQ(report.totalMispredicts, 100u + 499 + 10 + 50);
    EXPECT_EQ(report.h2pMispredicts, 150u);
    EXPECT_DOUBLE_EQ(report.staticFraction(), 0.5);
}

TEST(IdentifyH2p, BoundaryAccuracyIsNotH2p)
{
    // Exactly 99% accurate at exactly the exec floor: accuracy is not
    // below the threshold, so the branch stays out.
    sim::Ledger ledger = ledgerOf({{0x100, 1000, 990}});
    EXPECT_TRUE(identifyH2p(ledger).branches.empty());
    // One more miss tips it in.
    ledger = ledgerOf({{0x100, 1000, 989}});
    EXPECT_EQ(identifyH2p(ledger).branches.size(), 1u);
}

TEST(BestPerBranch, DominatesEveryInput)
{
    sim::Ledger a = ledgerOf({{0x100, 100, 90}, {0x200, 100, 40}});
    sim::Ledger b = ledgerOf({{0x100, 100, 70}, {0x200, 100, 95}});
    sim::Ledger best = bestPerBranchLedger({&a, &b});
    EXPECT_EQ(best.branch(0x100).correct, 90u);
    EXPECT_EQ(best.branch(0x200).correct, 95u);
    EXPECT_GE(best.accuracyPercent(), a.accuracyPercent());
    EXPECT_GE(best.accuracyPercent(), b.accuracyPercent());
}

TEST(BestPerBranchDeath, BranchMissingFromFirstPanics)
{
    sim::Ledger a = ledgerOf({{0x100, 100, 90}});
    sim::Ledger b = ledgerOf({{0x100, 100, 70}, {0x200, 100, 95}});
    EXPECT_DEATH(bestPerBranchLedger({&a, &b}), "different traces");
}

TEST(BestPerBranchDeath, MismatchedExecsPanic)
{
    sim::Ledger a = ledgerOf({{0x100, 100, 90}, {0x200, 100, 40}});
    sim::Ledger b = ledgerOf({{0x100, 100, 70}, {0x200, 90, 85}});
    EXPECT_DEATH(bestPerBranchLedger({&a, &b}), "different traces");
}

TEST(MispredictCdf, MonotoneAndNormalized)
{
    sim::Ledger ledger = ledgerOf({
        {0x100, 1000, 400},
        {0x200, 1000, 900},
        {0x300, 1000, 990},
        {0x400, 1000, 1000},
    });
    MispredictCdf cdf = mispredictCdf(ledger);
    ASSERT_EQ(cdf.points.size(), 4u);
    EXPECT_EQ(cdf.points.front().pc, 0x100u); // worst first
    for (size_t i = 1; i < cdf.points.size(); ++i) {
        EXPECT_GE(cdf.points[i - 1].mispredicts,
                  cdf.points[i].mispredicts);
        EXPECT_LE(cdf.points[i - 1].cumulativeFraction,
                  cdf.points[i].cumulativeFraction);
    }
    EXPECT_DOUBLE_EQ(cdf.points.back().cumulativeFraction, 1.0);
    // 600 of 710 mispredicts sit on the single worst branch.
    EXPECT_NEAR(cdf.points.front().cumulativeFraction, 600.0 / 710, 1e-12);
    // Top "1%" of 4 branches rounds up to the worst one.
    EXPECT_NEAR(cdf.fractionFromTopPercent(1.0), 600.0 / 710, 1e-12);
    EXPECT_EQ(cdf.branchesForFraction(0.5), 1u);
    EXPECT_EQ(cdf.branchesForFraction(1.0), 3u); // zero-miss pc excluded
}

TEST(MispredictCdf, EmptyAndPerfectLedgers)
{
    EXPECT_EQ(mispredictCdf(sim::Ledger{}).totalMispredicts, 0u);
    sim::Ledger perfect = ledgerOf({{0x100, 10, 10}});
    MispredictCdf cdf = mispredictCdf(perfect);
    EXPECT_EQ(cdf.totalMispredicts, 0u);
    EXPECT_DOUBLE_EQ(cdf.fractionFromTopPercent(10.0), 0.0);
    EXPECT_EQ(cdf.branchesForFraction(0.5), 0u);
}

TEST(H2pStability, JaccardOverSeeds)
{
    H2pReport a;
    a.branches = {{0x100, 0, 0, 0}, {0x200, 0, 0, 0}};
    H2pReport b;
    b.branches = {{0x200, 0, 0, 0}, {0x300, 0, 0, 0}};
    H2pStability s = h2pStability({a, b});
    EXPECT_EQ(s.unionSize, 3u);
    EXPECT_EQ(s.intersectionSize, 1u);
    EXPECT_NEAR(s.jaccard, 1.0 / 3.0, 1e-12);

    EXPECT_DOUBLE_EQ(h2pStability({a, a}).jaccard, 1.0);
    EXPECT_DOUBLE_EQ(h2pStability({}).jaccard, 1.0);
    H2pReport empty;
    EXPECT_DOUBLE_EQ(h2pStability({empty, empty}).jaccard, 1.0);
}

// --- Pinned workload H2P set ----------------------------------------
//
// The H2P branches of one seeded workload under the best-of roster are
// pinned by pc. Deterministic by construction (fixed trace seed, fully
// deterministic predictors); a change here means the roster, a hash
// function, or the criterion changed — update deliberately, the way
// golden snapshots are updated.

TEST(H2pPinned, GoWorkloadSeed1BestOfRoster)
{
    trace::Trace trace = workload::makeBenchmarkTrace("go", 200000, 1);
    std::vector<sim::Ledger> ledgers;
    for (const char *spec :
         {"gshare:h=16", "tage", "perceptron", "tournament"}) {
        predictor::PredictorPtr pred = predictor::makePredictor(spec);
        sim::Ledger ledger;
        sim::run(trace, *pred, &ledger);
        ledgers.push_back(std::move(ledger));
    }
    sim::Ledger best = bestPerBranchLedger(
        {&ledgers[0], &ledgers[1], &ledgers[2], &ledgers[3]});

    H2pReport report = identifyH2p(best);
    // H2P membership survives the best-of combination: hard under every
    // predictor, not an artifact of one table geometry.
    for (const H2pBranch &branch : report.branches) {
        EXPECT_GE(branch.execs, 1000u);
        EXPECT_LT(branch.accuracy, 0.99);
    }
    std::vector<uint64_t> pcs;
    for (const H2pBranch &branch : report.branches)
        pcs.push_back(branch.pc);
    std::sort(pcs.begin(), pcs.end());
    const std::vector<uint64_t> pinned = {
        310744,  310752,  1786732, 1786912, 1786960, 1786964, 1787024,
        1787044, 1787068, 1787116, 1787124, 1787244, 1787248, 1787292,
        1787304, 1787312, 2408452, 2797068, 2797072, 2797080, 2797084,
        2797172, 2797180, 2797184, 2874796, 2874800, 3030172};
    EXPECT_EQ(pcs, pinned) << "H2P set drifted; update deliberately";
}

} // namespace
} // namespace copra::core
