/**
 * @file
 * Ablation — where gshare's mispredictions come from: a per-mispredict
 * decomposition into cold / interference / training / noise causes.
 * This separates the two factors the paper's §3.6.3 identifies (PHT
 * interference and training time) and quantifies each directly, per
 * benchmark — the paper's IF-gap argument made causal.
 */

#include "bench_common.hpp"
#include "core/mispredict_taxonomy.hpp"
#include "util/table.hpp"
#include "workload/profiles.hpp"

int
main(int argc, char **argv)
{
    copra::bench::BenchOptions opts;
    opts.config.branches = 1000000;
    if (!opts.parse(argc, argv,
                    "Ablation: gshare misprediction taxonomy "
                    "(cold / interference / training / noise)"))
        return 0;
    copra::bench::banner("Ablation: gshare misprediction causes", opts);

    copra::bench::SuiteTiming timing;
    auto breakdowns = copra::bench::runSuite(
        opts, timing, [](copra::core::BenchmarkExperiment &experiment) {
            return copra::core::classifyMispredicts(experiment.trace());
        });

    copra::Table table({"benchmark", "accuracy %", "mispredicts",
                        "cold %", "interference %", "training %",
                        "noise %"});
    const auto &names = copra::workload::benchmarkNames();
    for (size_t i = 0; i < breakdowns.size(); ++i) {
        const copra::core::MispredictBreakdown &breakdown = breakdowns[i];
        using Cause = copra::core::MispredictCause;
        table.row()
            .cell(names[i])
            .cell(breakdown.accuracyPercent(), 2)
            .cell(breakdown.mispredicts())
            .cell(100.0 * breakdown.causeFraction(Cause::Cold), 1)
            .cell(100.0 * breakdown.causeFraction(Cause::Interference), 1)
            .cell(100.0 * breakdown.causeFraction(Cause::Training), 1)
            .cell(100.0 * breakdown.causeFraction(Cause::Noise), 1);
    }
    copra::bench::printTable(table, opts);

    std::printf("\nreading: interference + training is the IF-gshare "
                "gap of Table 2 decomposed; noise is the floor no "
                "global predictor of this geometry can cross.\n");
    copra::bench::finish("ablation_mispredicts", opts, timing);
    return 0;
}
