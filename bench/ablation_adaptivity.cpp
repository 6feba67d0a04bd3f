/**
 * @file
 * Ablation — the role of adaptivity in the second level (Sechrest et
 * al. 1995, Young et al. 1995; paper §2.2): a statically determined PHT
 * (profile-filled majority directions) against adaptive 2-bit counters,
 * with the same profiling and testing set, for gshare and PAs
 * geometries; and the Chang-et-al. branch-classification hybrid that
 * statically predicts the strongly biased branches.
 */

#include <iostream>

#include "bench_common.hpp"
#include "predictor/bias_hybrid.hpp"
#include "predictor/static_pht.hpp"
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
                    "Ablation: static vs adaptive PHTs, and the "
                    "branch-classification hybrid"))
        return 0;
    copra::bench::banner(
        "Ablation: second-level adaptivity and bias classification",
        opts);

    using namespace copra::predictor;
    copra::Table table({"benchmark", "gshare", "static-PHT gshare", "PAs",
                        "static-PHT PAs", "bias-hybrid(gshare)",
                        "strongly biased branches"});

    for (const auto &name : copra::workload::benchmarkNames()) {
        auto trace = copra::workload::makeBenchmarkTrace(
            name, opts.config.branches, opts.config.seed);
        auto gshare_cfg = TwoLevelConfig::gshare(16);
        auto pas_cfg = TwoLevelConfig::pas(12, 12, 4);

        TwoLevel gshare(gshare_cfg);
        TwoLevel pas(pas_cfg);
        auto static_gshare = StaticPhtTwoLevel::profile(trace, gshare_cfg);
        auto static_pas = StaticPhtTwoLevel::profile(trace, pas_cfg);
        BiasClassifyingHybrid bias_hybrid(
            BiasClassifyingHybrid::profileTrace(trace, 0.95),
            std::make_unique<TwoLevel>(gshare_cfg));
        size_t strongly = bias_hybrid.stronglyBiasedBranches();

        table.row()
            .cell(name)
            .cell(copra::sim::run(trace, gshare).accuracyPercent(), 2)
            .cell(copra::sim::run(trace, static_gshare).accuracyPercent(),
                  2)
            .cell(copra::sim::run(trace, pas).accuracyPercent(), 2)
            .cell(copra::sim::run(trace, static_pas).accuracyPercent(), 2)
            .cell(copra::sim::run(trace, bias_hybrid).accuracyPercent(),
                  2)
            .cell(static_cast<uint64_t>(strongly));
    }
    if (opts.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);

    std::printf("\nexpectation (paper §2.2): with profiling == testing "
                "set, static PHTs are on par with or above 2-bit "
                "counters; bias classification never hurts and frees "
                "dynamic capacity.\n");
    copra::bench::finish("ablation_adaptivity", opts);
    return 0;
}
