/**
 * @file
 * Figure 4 — selective history vs gshare and interference-free gshare:
 * prediction accuracy using an oracle-chosen selective history of 1, 2,
 * or 3 branches (3-valued taken / not-taken / not-in-path encoding, 16
 * prior branches considered), against IF gshare and regular gshare.
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
                    "Figure 4: selective history (1/2/3 oracle-chosen "
                    "branches) vs gshare and IF gshare"))
        return 0;
    copra::bench::banner("Figure 4: selective history vs gshare", opts);

    copra::bench::SuiteTiming timing;
    auto rows = copra::bench::runSuite(
        opts, timing, copra::workload::workloadSuiteNames(),
        [](copra::core::BenchmarkExperiment &experiment) {
            return experiment.fig4Row();
        });

    copra::Table table({"benchmark", "IF sel-1", "IF sel-2", "IF sel-3",
                        "IF gshare", "gshare"});
    for (const copra::core::Fig4Row &row : rows) {
        table.row()
            .cell(row.name)
            .cell(row.selective1, 2)
            .cell(row.selective2, 2)
            .cell(row.selective3, 2)
            .cell(row.ifGshare, 2)
            .cell(row.gshare, 2);
    }
    copra::bench::printTable(table, opts);

    std::printf("\npaper shape: sel-1 already respectable; sel-3 close "
                "to IF gshare; gshare below IF gshare.\n");
    copra::bench::finish("fig4_selective_history", opts, timing);
    return 0;
}
