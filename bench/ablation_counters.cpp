/**
 * @file
 * Ablation — second-level counter width: every predictor in the paper
 * inherits Smith's 2-bit saturating counter. This harness sweeps the
 * width for gshare and PAs: 1 bit (no hysteresis — one deviation flips
 * the prediction), 2 bits (the classic), and 3 bits (more inertia,
 * slower recovery after behaviour changes).
 */

#include <iostream>

#include "bench_common.hpp"
#include "predictor/two_level.hpp"
#include "sim/driver.hpp"
#include "util/table.hpp"
#include "workload/profiles.hpp"

int
main(int argc, char **argv)
{
    copra::bench::BenchOptions opts;
    opts.config.branches = 1000000;
    if (!opts.parse(argc, argv,
                    "Ablation: second-level counter width (1/2/3-bit) "
                    "for gshare and PAs"))
        return 0;
    copra::bench::banner("Ablation: PHT counter width", opts);

    using namespace copra::predictor;
    copra::Table table({"benchmark", "gshare 1b", "gshare 2b",
                        "gshare 3b", "PAs 1b", "PAs 2b", "PAs 3b"});
    for (const auto &name : copra::workload::benchmarkNames()) {
        auto trace = copra::workload::makeBenchmarkTrace(
            name, opts.config.branches, opts.config.seed);
        table.row().cell(name);
        for (unsigned bits : {1u, 2u, 3u}) {
            auto config = TwoLevelConfig::gshare(opts.config.gshareHistory);
            config.counterBits = bits;
            TwoLevel pred(config);
            table.cell(copra::sim::run(trace, pred).accuracyPercent(), 2);
        }
        for (unsigned bits : {1u, 2u, 3u}) {
            auto config = TwoLevelConfig::pas(12, 12, 4);
            config.counterBits = bits;
            TwoLevel pred(config);
            table.cell(copra::sim::run(trace, pred).accuracyPercent(), 2);
        }
    }
    if (opts.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);

    std::printf("\nexpectation (Smith 1981): 2-bit hysteresis beats "
                "1-bit nearly everywhere (loop exits cost one mispredict "
                "instead of two); 3 bits rarely pays.\n");
    copra::bench::finish("ablation_counters", opts);
    return 0;
}
