/**
 * @file
 * Figure 6 — per-address predictability class distribution: for every
 * benchmark, the fraction of dynamic branch executions whose branch is
 * best predicted by the loop / repeating-pattern / non-repeating-pattern
 * class predictor, or by the ideal static predictor (unclassified).
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
                    "Figure 6: per-address predictability classes, "
                    "dynamic-weighted"))
        return 0;
    copra::bench::banner("Figure 6: per-address class distribution",
                         opts);

    copra::Table table({"benchmark", "ideal static %", "loop %",
                        "repeating %", "non-repeating %",
                        "static bucket >99% biased %"});
    copra::bench::SuiteTiming timing;
    auto produced = copra::bench::runSuite(
        opts, timing, copra::workload::workloadSuiteNames(),
        [](copra::core::BenchmarkExperiment &experiment) {
            return experiment.fig6Row();
        });

    double sums[5] = {0, 0, 0, 0, 0};
    int rows = 0;
    for (const copra::core::Fig6Row &row : produced) {
        table.row()
            .cell(row.name)
            .cell(100.0 * row.fractions[0], 1)
            .cell(100.0 * row.fractions[1], 1)
            .cell(100.0 * row.fractions[2], 1)
            .cell(100.0 * row.fractions[3], 1)
            .cell(100.0 * row.staticBiasedFraction, 1);
        for (int i = 0; i < 4; ++i)
            sums[i] += 100.0 * row.fractions[static_cast<size_t>(i)];
        sums[4] += 100.0 * row.staticBiasedFraction;
        ++rows;
    }
    table.row().cell("average");
    for (double sum : sums)
        table.cell(sum / rows, 1);

    copra::bench::printTable(table, opts);

    std::printf("\npaper shape: about half ideal-static (88%% of that "
                ">99%% biased), about a third non-repeating, about a "
                "sixth loop, repeating infrequent.\n");
    copra::bench::finish("fig6_pa_classes", opts, timing);
    return 0;
}
