/**
 * @file
 * End-to-end integration tests: the paper's qualitative findings must
 * hold on the synthetic benchmark suite at modest trace lengths.
 */

#include <gtest/gtest.h>

#include "core/experiments.hpp"
#include "predictor/factory.hpp"
#include "sim/driver.hpp"
#include "workload/profiles.hpp"

namespace copra {
namespace {

double
accuracy(const std::string &spec, const trace::Trace &trace)
{
    auto pred = predictor::makePredictor(spec);
    return sim::run(trace, *pred).accuracyPercent();
}

TEST(Integration, BenchmarkHardnessOrderingMatchesPaper)
{
    // go is the hardest benchmark and vortex among the easiest, for
    // every serious predictor (paper Tables 2 and 3).
    auto go = workload::makeBenchmarkTrace("go", 150000, 0);
    auto vortex = workload::makeBenchmarkTrace("vortex", 150000, 0);
    EXPECT_LT(accuracy("gshare", go) + 5.0, accuracy("gshare", vortex));
    EXPECT_LT(accuracy("pas", go) + 5.0, accuracy("pas", vortex));
}

TEST(Integration, InterferenceFreeDominatesOnLargeBenchmarks)
{
    // The IF gap is the paper's central diagnostic: IF-gshare must beat
    // gshare on the branchy benchmarks (gcc, go).
    for (const char *name : {"gcc", "go"}) {
        auto trace = workload::makeBenchmarkTrace(name, 200000, 0);
        EXPECT_GT(accuracy("ifgshare", trace), accuracy("gshare", trace))
            << name;
    }
}

TEST(Integration, TwoLevelNeverLosesBadlyToBimodal)
{
    // At short trace lengths two-level predictors are still training
    // (more second-level state to warm up), so bimodal may edge them —
    // on go, whose run-structured data flatters per-branch counters, by
    // ~3 points at 300k branches (the gap closes with trace length). It
    // must never win by more, and on the heavily biased benchmarks the
    // two-level predictors win outright.
    for (const auto &name : workload::benchmarkNames()) {
        auto trace = workload::makeBenchmarkTrace(name, 300000, 0);
        double bimodal = accuracy("bimodal", trace);
        double best_two_level =
            std::max(accuracy("gshare", trace), accuracy("pas", trace));
        EXPECT_GT(best_two_level + 3.5, bimodal) << name;
        if (name == "m88ksim" || name == "vortex") {
            EXPECT_GT(best_two_level, bimodal) << name;
        }
    }
}

TEST(Integration, SelectiveHistoryTracksIfGshare)
{
    // Fig. 4's headline: 3 watched branches recover roughly what the
    // full 16-outcome interference-free history provides.
    core::ExperimentConfig config;
    config.branches = 120000;
    config.mineConditionals = 120000;
    core::BenchmarkExperiment experiment("gcc", config);
    core::Fig4Row row = experiment.fig4Row();
    EXPECT_GT(row.selective3, row.ifGshare - 2.5);
    // And one watched branch already lands in a sane band.
    EXPECT_GT(row.selective1, row.gshare - 6.0);
}

TEST(Integration, SelectiveAccuracySaturatesWithDepth)
{
    // Fig. 5: accuracy grows with history depth and flattens; depth 32
    // is never materially worse than depth 8.
    core::ExperimentConfig config;
    config.branches = 60000;
    config.mineConditionals = 60000;
    trace::Trace trace = core::makeExperimentTrace("m88ksim", config);
    auto series = core::fig5Series(trace, config, {8, 16, 32});
    ASSERT_EQ(series.size(), 3u);
    EXPECT_GT(series[2].second, series[0].second - 1.0);
}

TEST(Integration, LoopEnhancementHelpsPas)
{
    // Table 3's point: adding a loop predictor to PAs helps on the
    // loop-heavy benchmark.
    core::ExperimentConfig config;
    config.branches = 150000;
    core::BenchmarkExperiment experiment("ijpeg", config);
    core::Table3Row row = experiment.table3Row();
    EXPECT_GE(row.pasWithLoop, row.pas - 0.1);
}

TEST(Integration, StaticBestBranchesAreMostlyHeavilyBiased)
{
    // Paper §5.1: the overwhelming majority of dynamic executions in
    // the static-best bucket come from >99%-biased branches.
    core::ExperimentConfig config;
    config.branches = 150000;
    core::BenchmarkExperiment experiment("vortex", config);
    core::BestOfSplit split = experiment.fig7Split();
    EXPECT_GT(split.staticBiasedFraction, 0.5);
}

TEST(Integration, Fig9ShowsBothTails)
{
    // §5.2: there are branches where gshare is much better than PAs and
    // branches where PAs is much better than gshare.
    core::ExperimentConfig config;
    config.branches = 200000;
    core::BenchmarkExperiment experiment("gcc", config);
    auto wp = experiment.fig9Percentiles();
    EXPECT_LT(wp.percentile(2), -1.0);
    EXPECT_GT(wp.percentile(98), 1.0);
}

TEST(Integration, FullPipelineIsDeterministic)
{
    core::ExperimentConfig config;
    config.branches = 50000;
    core::BenchmarkExperiment a("perl", config);
    core::BenchmarkExperiment b("perl", config);
    EXPECT_DOUBLE_EQ(a.table2Row().gshareWithCorr,
                     b.table2Row().gshareWithCorr);
    EXPECT_DOUBLE_EQ(a.fig6Row().fractions[0], b.fig6Row().fractions[0]);
}

} // namespace
} // namespace copra
