/**
 * @file
 * Unit tests for the branch-classification hybrid (Chang et al., paper
 * §2.2) and the static-PHT two-level predictor (Sechrest / Young et
 * al., paper §2.2).
 */

#include <gtest/gtest.h>

#include "predictor/bias_hybrid.hpp"
#include "predictor/static_pht.hpp"
#include "predictor/two_level.hpp"
#include "sim/driver.hpp"
#include "trace/trace_stats.hpp"
#include "workload/patterns.hpp"
#include "workload/profiles.hpp"

namespace copra::predictor {
namespace {

/** Probe counting how many steps reach the dynamic component. */
class CountingProbe : public Predictor
{
  public:
    bool
    step(const trace::BranchRecord &, bool) noexcept override
    {
        ++steps;
        return true;
    }
    std::string name() const override { return "probe"; }
    int steps = 0;
};

TEST(BiasProfile, ThresholdSplitsBranches)
{
    auto strong = workload::biasedTrace(0x100, 0.99, 2000, 1);
    auto weak = workload::biasedTrace(0x200, 0.6, 2000, 2);
    auto trace = workload::interleave({strong, weak});
    auto profile = BiasClassifyingHybrid::profileTrace(trace, 0.95);
    ASSERT_EQ(profile.size(), 2u);
    EXPECT_TRUE(profile.at(0x100).strongly);
    EXPECT_TRUE(profile.at(0x100).majority);
    EXPECT_FALSE(profile.at(0x200).strongly);
}

TEST(BiasProfile, MajorityDirectionIsPerBranch)
{
    auto taken = workload::biasedTrace(0x100, 0.99, 1000, 1);
    auto not_taken = workload::biasedTrace(0x200, 0.01, 1000, 2);
    auto trace = workload::interleave({taken, not_taken});
    auto profile = BiasClassifyingHybrid::profileTrace(trace, 0.9);
    EXPECT_TRUE(profile.at(0x100).majority);
    EXPECT_FALSE(profile.at(0x200).majority);
}

TEST(BiasHybrid, StronglyBiasedBranchesBypassDynamicComponent)
{
    auto strong = workload::biasedTrace(0x100, 1.0, 1000, 1);
    auto weak = workload::biasedTrace(0x200, 0.6, 1000, 2);
    auto trace = workload::interleave({strong, weak});
    auto profile = BiasClassifyingHybrid::profileTrace(trace, 0.95);

    auto probe = std::make_unique<CountingProbe>();
    CountingProbe *probe_ptr = probe.get();
    BiasClassifyingHybrid hybrid(profile, std::move(probe));
    EXPECT_EQ(hybrid.stronglyBiasedBranches(), 1u);

    sim::run(trace, hybrid);
    // Only the weak branch's 1000 executions reach the component.
    EXPECT_EQ(probe_ptr->steps, 1000);
}

TEST(BiasHybrid, StaticSideIsExactOnItsBranches)
{
    auto strong = workload::biasedTrace(0x100, 0.995, 5000, 3);
    auto profile = BiasClassifyingHybrid::profileTrace(strong, 0.95);
    BiasClassifyingHybrid hybrid(
        profile, std::make_unique<TwoLevel>(TwoLevelConfig::gshare(10)));
    sim::Ledger ledger;
    sim::run(strong, hybrid, &ledger);
    // Static majority prediction: accuracy equals the bias exactly.
    trace::TraceStats stats(strong);
    EXPECT_EQ(ledger.branch(0x100).correct,
              stats.branch(0x100).idealStaticCorrect());
}

TEST(BiasHybrid, ProtectsDynamicTablesFromBiasedNoise)
{
    // A small gshare aliases badly when thousands of biased branches
    // pollute it; classifying them away recovers accuracy on the
    // genuinely dynamic branch.
    std::vector<trace::Trace> parts;
    for (int b = 0; b < 32; ++b) {
        parts.push_back(workload::biasedTrace(
            0x1000 + 4u * static_cast<unsigned>(b),
            b % 2 ? 0.99 : 0.01, 1500, static_cast<uint64_t>(b) + 10));
    }
    parts.push_back(workload::periodicTrace(0x100, {true, true, false},
                                            1500));
    auto trace = workload::interleave(parts);
    auto profile = BiasClassifyingHybrid::profileTrace(trace, 0.95);

    TwoLevel bare(TwoLevelConfig::gshare(6));
    sim::Ledger bare_ledger;
    sim::run(trace, bare, &bare_ledger);

    BiasClassifyingHybrid hybrid(
        profile, std::make_unique<TwoLevel>(TwoLevelConfig::gshare(6)));
    sim::Ledger hybrid_ledger;
    sim::run(trace, hybrid, &hybrid_ledger);

    EXPECT_GT(hybrid_ledger.branch(0x100).correct,
              bare_ledger.branch(0x100).correct);
    EXPECT_GT(hybrid_ledger.accuracyPercent(),
              bare_ledger.accuracyPercent());
}

TEST(BiasHybrid, UnprofiledBranchesGoDynamic)
{
    BiasClassifyingHybrid hybrid(
        {}, std::make_unique<TwoLevel>(TwoLevelConfig::gshare(8)));
    auto trace = workload::periodicTrace(0x300, {true, false}, 500);
    auto result = sim::run(trace, hybrid);
    EXPECT_GT(result.accuracyPercent(), 90.0);
}

TEST(StaticPht, PerfectOnDeterministicPatternItProfiled)
{
    auto trace = workload::periodicTrace(0x100, {true, true, false}, 1000);
    auto pred =
        StaticPhtTwoLevel::profile(trace, TwoLevelConfig::gshare(8));
    auto result = sim::run(trace, pred);
    // No training, no hysteresis: only the first few indices are cold in
    // the profile; on the testing run everything is exact.
    EXPECT_GT(result.accuracyPercent(), 99.5);
}

TEST(StaticPht, BeatsAdaptiveOnShortSameSetRuns)
{
    // Young et al.: with profiling == testing set, the statically
    // determined PHT avoids the 2-bit counters' training losses.
    auto trace = workload::makeBenchmarkTrace("m88ksim", 50000, 0);
    auto static_pred =
        StaticPhtTwoLevel::profile(trace, TwoLevelConfig::gshare(12));
    TwoLevel adaptive(TwoLevelConfig::gshare(12));
    auto rs = sim::run(trace, static_pred);
    auto ra = sim::run(trace, adaptive);
    EXPECT_GT(rs.accuracyPercent() + 0.5, ra.accuracyPercent());
}

TEST(StaticPht, AdaptiveWinsWhenBehaviorShifts)
{
    // Profile on one phase, test on a phase with the opposite bias: the
    // static PHT is stuck with stale directions; counters re-train.
    auto phase1 = workload::biasedTrace(0x100, 0.95, 4000, 1);
    auto phase2 = workload::biasedTrace(0x100, 0.05, 4000, 2);
    auto pred =
        StaticPhtTwoLevel::profile(phase1, TwoLevelConfig::gshare(8));
    TwoLevel adaptive(TwoLevelConfig::gshare(8));
    auto rs = sim::run(phase2, pred);
    auto ra = sim::run(phase2, adaptive);
    EXPECT_GT(ra.accuracyPercent(), rs.accuracyPercent() + 20.0);
}

TEST(StaticPht, CoverageReflectsExercisedIndices)
{
    auto trace = workload::biasedTrace(0x100, 1.0, 100, 1);
    auto pred =
        StaticPhtTwoLevel::profile(trace, TwoLevelConfig::gshare(10));
    // An always-taken branch exercises very few history patterns.
    EXPECT_GT(pred.coverage(), 0.0);
    EXPECT_LT(pred.coverage(), 0.05);
}

TEST(StaticPht, NameMentionsGeometry)
{
    auto trace = workload::biasedTrace(0x100, 1.0, 10, 1);
    auto pred =
        StaticPhtTwoLevel::profile(trace, TwoLevelConfig::gshare(8));
    EXPECT_EQ(pred.name(), "static-pht[gshare(h=8)]");
}

} // namespace
} // namespace copra::predictor
