/**
 * @file
 * Ablation — second-level counter width: every predictor in the paper
 * inherits Smith's 2-bit saturating counter. This harness sweeps the
 * width for gshare and PAs: 1 bit (no hysteresis — one deviation flips
 * the prediction), 2 bits (the classic), and 3 bits (more inertia,
 * slower recovery after behaviour changes).
 */

#include <array>
#include <string>

#include "bench_common.hpp"
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

    copra::bench::SuiteTiming timing;
    auto rows = copra::bench::runSuite(
        opts, timing, [](copra::core::BenchmarkExperiment &experiment) {
            std::array<double, 6> accuracy{};
            size_t column = 0;
            for (const char *spec :
                 {copra::core::kGshareSpec, copra::core::kPasSpec})
                for (unsigned bits : {1u, 2u, 3u})
                    accuracy[column++] =
                        experiment
                            .ledgerFor(std::string(spec) + ":cbits=" +
                                       std::to_string(bits))
                            .accuracyPercent();
            return accuracy;
        });

    copra::Table table({"benchmark", "gshare 1b", "gshare 2b",
                        "gshare 3b", "PAs 1b", "PAs 2b", "PAs 3b"});
    const auto &names = copra::workload::benchmarkNames();
    for (size_t i = 0; i < rows.size(); ++i) {
        table.row().cell(names[i]);
        for (double accuracy : rows[i])
            table.cell(accuracy, 2);
    }
    copra::bench::printTable(table, opts);

    std::printf("\nexpectation (Smith 1981): 2-bit hysteresis beats "
                "1-bit nearly everywhere (loop exits cost one mispredict "
                "instead of two); 3 bits rarely pays.\n");
    copra::bench::finish("ablation_counters", opts, timing);
    return 0;
}
