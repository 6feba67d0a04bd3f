/**
 * @file
 * Figure 5 — accuracy as a function of history length using a 3-branch
 * selective history: the window depth n sweeps 8..32 in steps of 4. The
 * paper's finding: accuracy grows up to n ~ 20 and flattens, i.e. the
 * important correlated branches are close to the predicted branch.
 */

#include "bench_common.hpp"
#include "util/table.hpp"
#include "workload/frontier.hpp"
#include "workload/profiles.hpp"

int
main(int argc, char **argv)
{
    copra::bench::BenchOptions opts;
    opts.config.branches = 500000;
    opts.config.mineConditionals = 500000;
    if (!opts.parse(argc, argv,
                    "Figure 5: 3-branch selective history accuracy vs "
                    "history window depth (8..32)"))
        return 0;
    copra::bench::banner(
        "Figure 5: accuracy vs history length (3-branch selective)",
        opts);

    const std::vector<unsigned> depths = {8, 12, 16, 20, 24, 28, 32};
    std::vector<std::string> headers = {"benchmark"};
    for (unsigned d : depths)
        headers.push_back("n=" + std::to_string(d));
    copra::Table table(headers);

    copra::bench::SuiteTiming timing;
    auto all_series = copra::bench::runSuite(
        opts, timing, copra::workload::workloadSuiteNames(),
        [&depths,
         &opts](copra::core::BenchmarkExperiment &experiment) {
            return copra::core::fig5Series(experiment.trace(),
                                           opts.config, depths);
        });

    const auto &names = copra::workload::workloadSuiteNames();
    for (size_t i = 0; i < all_series.size(); ++i) {
        table.row().cell(names[i]);
        for (const auto &[depth, accuracy] : all_series[i])
            table.cell(accuracy, 2);
    }
    copra::bench::printTable(table, opts);

    std::printf("\npaper shape: slow growth up to n~20, little beyond "
                "(correlated branches are nearby).\n");
    copra::bench::finish("fig5_history_length", opts, timing);
    return 0;
}
