/**
 * @file
 * Quickstart: generate a synthetic benchmark trace, run a few predictors
 * over it, and print their accuracies. This is the 60-second tour of the
 * copra public API: workload -> trace -> predictor -> sim::run.
 */

#include <cstdio>
#include <iostream>

#include "predictor/bimodal.hpp"
#include "predictor/tournament.hpp"
#include "predictor/two_level.hpp"
#include "sim/driver.hpp"
#include "trace/trace_stats.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"
#include "workload/profiles.hpp"

int
main(int argc, char **argv)
{
    std::string benchmark = "gcc";
    uint64_t branches = 500000;
    uint64_t seed = 0;

    copra::OptionParser options(
        "copra quickstart: simulate classic predictors on one synthetic "
        "SPECint95-like benchmark");
    options.addString("benchmark", &benchmark,
                      "benchmark name (compress gcc go ijpeg m88ksim perl "
                      "vortex xlisp)");
    options.addUint("branches", &branches,
                    "dynamic conditional branches to simulate");
    options.addUint("seed", &seed, "execution seed (0 = canonical)");
    if (!options.parse(argc, argv))
        return 0;
    copra::fatalIf(branches == 0, "--branches must be at least 1");

    // 1. Generate a workload trace.
    auto trace =
        copra::workload::makeBenchmarkTrace(benchmark, branches, seed);
    copra::trace::TraceStats stats(trace);
    std::printf("benchmark %s: %llu dynamic conditional branches, "
                "%zu static branches, %.1f%% taken\n",
                benchmark.c_str(),
                static_cast<unsigned long long>(stats.dynamicBranches()),
                stats.staticBranches(),
                100.0 * stats.dynamicTaken() / stats.dynamicBranches());

    // 2. Build predictors.
    copra::predictor::Bimodal bimodal(12);
    copra::predictor::TwoLevel gshare(
        copra::predictor::TwoLevelConfig::gshare(16));
    copra::predictor::TwoLevel pas(
        copra::predictor::TwoLevelConfig::pas(12, 12, 4));
    copra::predictor::Tournament tournament(
        copra::predictor::TournamentConfig{});

    // 3. Run them all over the trace, one pass per predictor, sharded
    //    across the thread pool.
    std::vector<copra::predictor::Predictor *> preds = {
        &bimodal, &gshare, &pas, &tournament,
    };
    auto results = copra::sim::runAllParallel(trace, preds);

    // 4. Report.
    copra::Table table({"predictor", "accuracy %", "mispredict %"});
    for (const auto &res : results) {
        table.row()
            .cell(res.predictorName)
            .cell(res.accuracyPercent(), 2)
            .cell(res.mispredictPercent(), 2);
    }
    table.print(std::cout);
    return 0;
}
