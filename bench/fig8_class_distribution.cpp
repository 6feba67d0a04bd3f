/**
 * @file
 * Figure 8 — distribution of branches best predicted using global
 * correlation (IF gshare or the 3-branch selective history), the
 * per-address class predictors of §4.1, or an ideal static predictor,
 * weighted by execution frequency. The paper reports ~38% global, ~22%
 * per-address, ~40% static (92% of it >99% biased).
 */

#include "bench_common.hpp"
#include "util/table.hpp"
#include "workload/frontier.hpp"
#include "workload/profiles.hpp"

int
main(int argc, char **argv)
{
    copra::bench::BenchOptions opts;
    if (!opts.parse(argc, argv,
                    "Figure 8: best of {global correlation, per-address "
                    "classes, ideal static}, dynamic-weighted"))
        return 0;
    copra::bench::banner(
        "Figure 8: global / per-address / ideal-static split", opts);

    copra::Table table({"benchmark", "global best %",
                        "per-address best %", "ideal static best %",
                        "static >99% biased %"});
    copra::bench::SuiteTiming timing;
    auto splits = copra::bench::runSuite(
        opts, timing, copra::workload::workloadSuiteNames(),
        [](copra::core::BenchmarkExperiment &experiment) {
            return experiment.fig8Split();
        });

    const auto &names = copra::workload::workloadSuiteNames();
    double sums[4] = {0, 0, 0, 0};
    int rows = 0;
    for (size_t i = 0; i < splits.size(); ++i) {
        const copra::core::BestOfSplit &split = splits[i];
        table.row()
            .cell(names[i])
            .cell(100.0 * split.fracA, 1)
            .cell(100.0 * split.fracB, 1)
            .cell(100.0 * split.fracStatic, 1)
            .cell(100.0 * split.staticBiasedFraction, 1);
        sums[0] += 100.0 * split.fracA;
        sums[1] += 100.0 * split.fracB;
        sums[2] += 100.0 * split.fracStatic;
        sums[3] += 100.0 * split.staticBiasedFraction;
        ++rows;
    }
    table.row().cell("average");
    for (double sum : sums)
        table.cell(sum / rows, 1);

    copra::bench::printTable(table, opts);

    std::printf("\npaper averages: global 38%%, per-address 22%%, ideal "
                "static 40%% (92%% of it >99%% biased).\n");
    copra::bench::finish("fig8_class_distribution", opts, timing);
    return 0;
}
