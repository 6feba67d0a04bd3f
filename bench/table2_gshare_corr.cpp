/**
 * @file
 * Table 2 — accuracy of gshare with and without additional correlation:
 * the hypothetical "gshare w/ Corr" uses the 1-branch selective history
 * for every branch where it beats gshare, showing that gshare fails to
 * exploit even the single strongest correlation for some branches.
 */

#include "bench_common.hpp"
#include "util/table.hpp"
#include "workload/profiles.hpp"

int
main(int argc, char **argv)
{
    copra::bench::BenchOptions opts;
    if (!opts.parse(argc, argv,
                    "Table 2: gshare / gshare w\\ Corr / IF gshare / IF "
                    "gshare w\\ Corr"))
        return 0;
    copra::bench::banner("Table 2: correlation gshare fails to exploit",
                         opts);

    copra::bench::SuiteTiming timing;
    auto rows = copra::bench::runSuite(
        opts, timing,
        [](copra::core::BenchmarkExperiment &experiment) {
            return experiment.table2Row();
        });

    copra::Table table({"benchmark", "gshare", "gshare w/Corr",
                        "IF gshare", "IF gshare w/Corr", "paper gshare",
                        "paper gsh w/Corr", "paper IF", "paper IF w/Corr"});
    for (const copra::core::Table2Row &row : rows) {
        const auto &ref = copra::workload::paperReference(row.name);
        table.row()
            .cell(row.name)
            .cell(row.gshare, 2)
            .cell(row.gshareWithCorr, 2)
            .cell(row.ifGshare, 2)
            .cell(row.ifGshareWithCorr, 2)
            .cell(ref.gshare, 2)
            .cell(ref.gshareWithCorr, 2)
            .cell(ref.ifGshare, 2)
            .cell(ref.ifGshareWithCorr, 2);
    }
    copra::bench::printTable(table, opts);

    std::printf("\npaper shape: w/Corr > base for every benchmark, with "
                "the largest gains on gcc and go.\n");
    copra::bench::finish("table2_gshare_corr", opts, timing);
    return 0;
}
