/**
 * @file
 * Table 1 — benchmark summary: the synthetic suite standing in for
 * SPECint95, with dynamic branch counts, static branch populations, and
 * bias structure, next to the paper's dynamic branch counts.
 */

#include "bench_common.hpp"
#include "trace/trace_stats.hpp"
#include "util/table.hpp"
#include "workload/profiles.hpp"

int
main(int argc, char **argv)
{
    copra::bench::BenchOptions opts;
    opts.config.branches = 2000000;
    if (!opts.parse(argc, argv,
                    "Table 1: benchmark suite summary (synthetic "
                    "SPECint95 substitution)"))
        return 0;
    copra::bench::banner("Table 1: benchmark summary", opts);

    struct Row
    {
        std::string name;
        uint64_t dynamicBranches = 0;
        uint64_t staticBranches = 0;
        double takenPct = 0;
        double biasedPct = 0;
        double idealStaticPct = 0;
    };
    copra::bench::SuiteTiming timing;
    auto rows = copra::bench::runSuite(
        opts, timing,
        [](copra::core::BenchmarkExperiment &experiment) {
            const copra::trace::TraceStats &stats = experiment.stats();
            Row row;
            row.name = experiment.name();
            row.dynamicBranches = stats.dynamicBranches();
            row.staticBranches =
                static_cast<uint64_t>(stats.staticBranches());
            row.takenPct =
                100.0 * stats.dynamicTaken() / stats.dynamicBranches();
            row.biasedPct =
                100.0 * stats.dynamicFractionWithBiasAbove(0.99);
            row.idealStaticPct = 100.0 * stats.idealStaticCorrect()
                / stats.dynamicBranches();
            return row;
        });

    copra::Table table({"benchmark", "dyn branches", "static", "taken %",
                        ">99% biased %", "ideal static %",
                        "paper dyn branches"});
    for (const Row &row : rows) {
        const auto &ref = copra::workload::paperReference(row.name);
        table.row()
            .cell(row.name)
            .cell(row.dynamicBranches)
            .cell(row.staticBranches)
            .cell(row.takenPct, 1)
            .cell(row.biasedPct, 1)
            .cell(row.idealStaticPct, 2)
            .cell(ref.paperDynamicBranches);
    }
    copra::bench::printTable(table, opts);
    copra::bench::finish("table1_benchmarks", opts, timing);
    return 0;
}
