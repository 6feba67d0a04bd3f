/**
 * @file
 * Table 3 — PAs with and without the loop enhancement: the hypothetical
 * "PAs w/ Loop" uses the loop-class predictor for every branch in the
 * loop class and PAs for the rest, quantifying the loop predictability
 * PAs leaves unexploited.
 */

#include "bench_common.hpp"
#include "util/table.hpp"
#include "workload/profiles.hpp"

int
main(int argc, char **argv)
{
    copra::bench::BenchOptions opts;
    if (!opts.parse(argc, argv,
                    "Table 3: PAs / PAs w\\ Loop / IF PAs / IF PAs "
                    "w\\ Loop"))
        return 0;
    copra::bench::banner("Table 3: loop predictability PAs misses", opts);

    copra::bench::SuiteTiming timing;
    auto rows = copra::bench::runSuite(
        opts, timing,
        [](copra::core::BenchmarkExperiment &experiment) {
            return experiment.table3Row();
        });

    copra::Table table({"benchmark", "PAs", "PAs w/Loop", "IF PAs",
                        "IF PAs w/Loop", "paper PAs", "paper PAs w/Loop",
                        "paper IF PAs", "paper IF w/Loop"});
    for (const copra::core::Table3Row &row : rows) {
        const auto &ref = copra::workload::paperReference(row.name);
        table.row()
            .cell(row.name)
            .cell(row.pas, 2)
            .cell(row.pasWithLoop, 2)
            .cell(row.ifPas, 2)
            .cell(row.ifPasWithLoop, 2)
            .cell(ref.pas, 2)
            .cell(ref.pasWithLoop, 2)
            .cell(ref.ifPas, 2)
            .cell(ref.ifPasWithLoop, 2);
    }
    copra::bench::printTable(table, opts);

    std::printf("\npaper shape: the loop enhancement helps every "
                "benchmark, most on gcc/go/ijpeg/m88ksim.\n");
    copra::bench::finish("table3_pas_loop", opts, timing);
    return 0;
}
