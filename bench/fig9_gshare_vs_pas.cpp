/**
 * @file
 * Figure 9 — difference between gshare and PAs accuracy: for each
 * benchmark, the percentile-of-dynamic-branches curve of the per-branch
 * accuracy difference (gshare - PAs, percentage points). The paper
 * plots gcc and perl; the left tail is where PAs is much better, the
 * right tail where gshare is much better, and both tails being fat is
 * why hybrids win.
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
                    "Figure 9: percentile curve of per-branch gshare - "
                    "PAs accuracy difference"))
        return 0;
    copra::bench::banner("Figure 9: gshare - PAs accuracy difference",
                         opts);

    const std::vector<double> percentiles = {0,  5,  10, 25, 50,
                                             75, 90, 95, 100};
    std::vector<std::string> headers = {"benchmark"};
    for (double p : percentiles)
        headers.push_back("p" + std::to_string(static_cast<int>(p)));
    copra::Table table(headers);

    copra::bench::SuiteTiming timing;
    auto curves = copra::bench::runSuite(
        opts, timing, copra::workload::workloadSuiteNames(),
        [](copra::core::BenchmarkExperiment &experiment) {
            return experiment.fig9Percentiles();
        });

    const auto &names = copra::workload::workloadSuiteNames();
    for (size_t i = 0; i < curves.size(); ++i) {
        table.row().cell(names[i]);
        for (double p : percentiles)
            table.cell(curves[i].percentile(p), 1);
    }
    copra::bench::printTable(table, opts);

    std::printf("\npaper reference (gcc): p10 ~ -7.0 (PAs better), p90 "
                "~ +10.4 (gshare better); perl much flatter.\n");
    copra::bench::finish("fig9_gshare_vs_pas", opts, timing);
    return 0;
}
