/**
 * @file
 * Figure 7 — distribution of branches best predicted by gshare, PAs, or
 * an ideal static predictor, weighted by execution frequency. The paper
 * reports ~29% gshare-best, ~16% PAs-best, ~55% static-best on average,
 * with 83% of the static bucket more than 99% biased.
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
                    "Figure 7: best of {gshare, PAs, ideal static}, "
                    "dynamic-weighted"))
        return 0;
    copra::bench::banner("Figure 7: gshare / PAs / ideal-static split",
                         opts);

    copra::Table table({"benchmark", "gshare best %", "PAs best %",
                        "ideal static best %", "static >99% biased %"});
    copra::bench::SuiteTiming timing;
    auto splits = copra::bench::runSuite(
        opts, timing, copra::workload::workloadSuiteNames(),
        [](copra::core::BenchmarkExperiment &experiment) {
            return experiment.fig7Split();
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

    std::printf("\npaper averages: gshare best 29%%, PAs best 16%%, "
                "ideal static 55%% (83%% of it >99%% biased).\n");
    copra::bench::finish("fig7_gshare_pas_static", opts, timing);
    return 0;
}
