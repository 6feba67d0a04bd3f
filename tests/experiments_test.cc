/**
 * @file
 * Tests for the experiment assembly layer: every row producer yields
 * sane, internally consistent values on a small benchmark.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "core/experiments.hpp"
#include "obs/instruments.hpp"
#include "obs/registry.hpp"
#include "predictor/interference_free.hpp"
#include "predictor/two_level.hpp"
#include "sim/driver.hpp"
#include "workload/profiles.hpp"

namespace copra::core {
namespace {

ExperimentConfig
smallConfig()
{
    ExperimentConfig config;
    config.branches = 40000;
    config.mineConditionals = 40000;
    return config;
}

class ExperimentsFixture : public ::testing::Test
{
  protected:
    ExperimentsFixture() : experiment_("compress", smallConfig()) {}
    BenchmarkExperiment experiment_;
};

TEST_F(ExperimentsFixture, TraceMatchesConfig)
{
    EXPECT_EQ(experiment_.trace().conditionalCount(), 40000u);
    EXPECT_EQ(experiment_.name(), "compress");
    EXPECT_GT(experiment_.stats().staticBranches(), 10u);
}

TEST_F(ExperimentsFixture, Fig4RowIsOrderedSanely)
{
    Fig4Row row = experiment_.fig4Row();
    EXPECT_EQ(row.name, "compress");
    for (double v : {row.selective1, row.selective2, row.selective3,
                     row.ifGshare, row.gshare}) {
        EXPECT_GT(v, 50.0);
        EXPECT_LE(v, 100.0);
    }
    // Larger selective histories never hurt much (greedy can dip by
    // training cost, but more than a point would be a bug).
    EXPECT_GE(row.selective2 + 1.0, row.selective1);
    EXPECT_GE(row.selective3 + 1.0, row.selective2);
}

TEST_F(ExperimentsFixture, Table2CombinationsDominateBaselines)
{
    Table2Row row = experiment_.table2Row();
    // Best-of combinations are per-branch maxima: they can never lose
    // to their base predictor.
    EXPECT_GE(row.gshareWithCorr, row.gshare);
    EXPECT_GE(row.ifGshareWithCorr, row.ifGshare);
}

TEST_F(ExperimentsFixture, Fig6FractionsSumToOne)
{
    Fig6Row row = experiment_.fig6Row();
    double sum = 0.0;
    for (double f : row.fractions) {
        EXPECT_GE(f, 0.0);
        sum += f;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_GE(row.staticBiasedFraction, 0.0);
    EXPECT_LE(row.staticBiasedFraction, 1.0);
}

TEST_F(ExperimentsFixture, Table3LoopEnhancementIsBounded)
{
    Table3Row row = experiment_.table3Row();
    EXPECT_GT(row.pas, 50.0);
    EXPECT_GT(row.ifPas, 50.0);
    // The loop-enhanced hybrids replace only loop-class branches; they
    // stay within a few points of the base in either direction.
    EXPECT_NEAR(row.pasWithLoop, row.pas, 10.0);
    EXPECT_NEAR(row.ifPasWithLoop, row.ifPas, 10.0);
}

TEST_F(ExperimentsFixture, Fig7And8SplitsSumToOne)
{
    for (BestOfSplit split :
         {experiment_.fig7Split(), experiment_.fig8Split()}) {
        EXPECT_NEAR(split.fracA + split.fracB + split.fracStatic, 1.0,
                    1e-9);
        EXPECT_GE(split.staticBiasedFraction, 0.0);
        EXPECT_LE(split.staticBiasedFraction, 1.0);
    }
}

TEST_F(ExperimentsFixture, Fig9PercentilesAreMonotone)
{
    WeightedPercentiles wp = experiment_.fig9Percentiles();
    EXPECT_EQ(wp.totalWeight(), 40000u);
    auto curve = wp.curve(10.0);
    for (size_t i = 1; i < curve.size(); ++i)
        EXPECT_GE(curve[i].second, curve[i - 1].second);
    // Differences are percentage points in [-100, 100].
    EXPECT_GE(curve.front().second, -100.0);
    EXPECT_LE(curve.back().second, 100.0);
}

TEST_F(ExperimentsFixture, LedgersAreCachedAndConsistent)
{
    const sim::Ledger &first = experiment_.ledgerFor(kGshareSpec);
    const sim::Ledger &second = experiment_.ledgerFor(kGshareSpec);
    EXPECT_EQ(&first, &second); // same object: computed once
    EXPECT_EQ(first.dynamic(), 40000u);
    EXPECT_EQ(experiment_.ledgerFor(kPasSpec).dynamic(), 40000u);
    EXPECT_EQ(experiment_.ledgerFor(kIfGshareSpec).dynamic(), 40000u);
}

TEST_F(ExperimentsFixture, SpecConstantsAreThePaperGeometry)
{
    // gshare and IF gshare with 16 history bits, PAs 12/12/4.
    predictor::TwoLevel gshare(predictor::TwoLevelConfig::gshare(16));
    predictor::TwoLevel pas(predictor::TwoLevelConfig::pas(12, 12, 4));
    predictor::IfGshare if_gshare(16);
    const std::pair<const char *, predictor::Predictor *> cases[] = {
        {kGshareSpec, &gshare},
        {kPasSpec, &pas},
        {kIfGshareSpec, &if_gshare},
    };
    for (const auto &[spec, pred] : cases) {
        sim::Ledger expected;
        sim::run(experiment_.trace(), *pred, &expected);
        const sim::Ledger &actual = experiment_.ledgerFor(spec);
        ASSERT_EQ(actual.table().size(), expected.table().size()) << spec;
        for (size_t i = 0; i < actual.table().size(); ++i)
            EXPECT_EQ(actual.table()[i].second.correct,
                      expected.table()[i].second.correct)
                << spec << " branch " << i;
    }
}

TEST(Experiments, ExternalTraceConstructor)
{
    ExperimentConfig config = smallConfig();
    trace::Trace trace =
        workload::makeBenchmarkTrace("xlisp", 20000, 0);
    BenchmarkExperiment experiment(std::move(trace), config);
    EXPECT_EQ(experiment.name(), "xlisp");
    EXPECT_EQ(experiment.ledgerFor(kGshareSpec).dynamic(), 20000u);
}

TEST(Experiments, Fig5SeriesCoversRequestedDepths)
{
    ExperimentConfig config = smallConfig();
    config.branches = 20000;
    config.mineConditionals = 20000;
    trace::Trace trace = makeExperimentTrace("compress", config);
    auto series = fig5Series(trace, config, {8, 16, 24});
    ASSERT_EQ(series.size(), 3u);
    EXPECT_EQ(series[0].first, 8u);
    EXPECT_EQ(series[2].first, 24u);
    for (const auto &[depth, acc] : series) {
        EXPECT_GT(acc, 50.0);
        EXPECT_LE(acc, 100.0);
    }
}

TEST(Experiments, Fig6TimesTheClassifierNotTheOracle)
{
    // fig6 runs the PA classifier and no oracle: its time lands in one
    // sim.phase.pa_classifier pair and in no sim.phase.oracle.* sample.
    ExperimentConfig config = smallConfig();
    config.branches = 20000;
    BenchmarkExperiment experiment("xlisp", config);
    obs::Registry &registry = obs::Registry::instance();
    registry.reset();
    obs::setEnabled(true);
    experiment.fig6Row();
    experiment.fig6Row(); // cached: no second classifier run
    obs::Snapshot snap = registry.snapshot();
    obs::setEnabled(false);
    registry.reset();

    for (const obs::InstrumentValue &value : snap.values) {
        const std::string key = registry.describe(value.id).key;
        if (key.rfind("sim.phase.oracle.", 0) == 0) {
            EXPECT_EQ(value.count, 0u) << key;
        }
    }
    EXPECT_EQ(snap.values.at(obs::ids().simPhasePaClassifierSeconds).count,
              1u);
    EXPECT_EQ(
        snap.values.at(obs::ids().simPhasePaClassifierCpuSeconds).count, 1u);
}

TEST(Experiments, DeterministicAcrossInstances)
{
    ExperimentConfig config = smallConfig();
    config.branches = 20000;
    BenchmarkExperiment a("go", config);
    BenchmarkExperiment b("go", config);
    EXPECT_DOUBLE_EQ(a.ledgerFor(kGshareSpec).accuracyPercent(),
                     b.ledgerFor(kGshareSpec).accuracyPercent());
    Fig4Row ra = a.fig4Row();
    Fig4Row rb = b.fig4Row();
    EXPECT_DOUBLE_EQ(ra.selective3, rb.selective3);
}

} // namespace
} // namespace copra::core
