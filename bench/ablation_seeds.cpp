/**
 * @file
 * Ablation — seed robustness: the paper's conclusions should not be
 * artifacts of one particular synthetic data stream. This harness
 * reruns the Table 2 headline (gshare w/ Corr gain) and the gshare/PAs
 * ordering across several execution seeds of the same programs and
 * reports mean and spread.
 */

#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "util/table.hpp"
#include "workload/profiles.hpp"

int
main(int argc, char **argv)
{
    copra::bench::BenchOptions opts;
    opts.config.branches = 500000;
    opts.config.mineConditionals = 500000;
    uint64_t seeds = 5;
    if (!opts.parse(argc, argv,
                    "Ablation: seed robustness of the Table 2 headline",
                    [&](copra::OptionParser &options) {
                        options.addUint("seeds", &seeds,
                                        "number of execution seeds");
                    }))
        return 0;
    copra::bench::banner("Ablation: seed robustness", opts);

    copra::Table table({"benchmark", "gshare mean", "gshare sd",
                        "w/Corr gain mean", "gain sd",
                        "gshare>PAs (seeds)"});
    for (const auto &name : copra::workload::benchmarkNames()) {
        std::vector<double> gshare_acc;
        std::vector<double> gains;
        int gshare_wins = 0;
        for (uint64_t s = 0; s < seeds; ++s) {
            copra::core::ExperimentConfig config = opts.config;
            config.seed = 1000 + 17 * s;
            copra::core::BenchmarkExperiment experiment(name, config);
            auto row = experiment.table2Row();
            gshare_acc.push_back(row.gshare);
            gains.push_back(row.gshareWithCorr - row.gshare);
            if (row.gshare >=
                experiment.pasLedger().accuracyPercent())
                ++gshare_wins;
        }
        auto mean = [](const std::vector<double> &v) {
            double sum = 0;
            for (double x : v)
                sum += x;
            return sum / static_cast<double>(v.size());
        };
        auto stdev = [&](const std::vector<double> &v) {
            double m = mean(v);
            double ss = 0;
            for (double x : v)
                ss += (x - m) * (x - m);
            return std::sqrt(ss / static_cast<double>(v.size()));
        };
        table.row()
            .cell(name)
            .cell(mean(gshare_acc), 2)
            .cell(stdev(gshare_acc), 3)
            .cell(mean(gains), 2)
            .cell(stdev(gains), 3)
            .cell(std::to_string(gshare_wins) + "/" +
                  std::to_string(seeds));
    }
    if (opts.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);

    std::printf("\nexpectation: accuracies move by tenths across seeds "
                "(go, the noisiest, by ~2 points); the w/Corr gain is "
                "always positive. Decisive gshare-vs-PAs orderings are "
                "stable; near-ties (gcc, perl - the paper's own gaps "
                "are under a quarter point there) legitimately flip.\n");
    copra::bench::finish("ablation_seeds", opts);
    return 0;
}
