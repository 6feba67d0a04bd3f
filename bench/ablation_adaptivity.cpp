/**
 * @file
 * Ablation — the role of adaptivity in the second level (Sechrest et
 * al. 1995, Young et al. 1995; paper §2.2): a statically determined PHT
 * (profile-filled majority directions) against adaptive 2-bit counters,
 * with the same profiling and testing set, for gshare and PAs
 * geometries; and the Chang-et-al. branch-classification hybrid that
 * statically predicts the strongly biased branches.
 */

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
    struct Row
    {
        double gshare = 0.0;
        double staticGshare = 0.0;
        double pas = 0.0;
        double staticPas = 0.0;
        double biasHybrid = 0.0;
        uint64_t stronglyBiased = 0;
    };
    copra::bench::SuiteTiming timing;
    auto rows = copra::bench::runSuite(
        opts, timing, [](copra::core::BenchmarkExperiment &experiment) {
            const copra::trace::Trace &trace = experiment.trace();
            auto gshare_cfg = TwoLevelConfig::gshare(16);
            auto pas_cfg = TwoLevelConfig::pas(12, 12, 4);
            auto static_gshare =
                StaticPhtTwoLevel::profile(trace, gshare_cfg);
            auto static_pas = StaticPhtTwoLevel::profile(trace, pas_cfg);
            BiasClassifyingHybrid bias_hybrid(
                BiasClassifyingHybrid::profileTrace(trace, 0.95),
                std::make_unique<TwoLevel>(gshare_cfg));

            Row row;
            row.gshare = experiment.ledgerFor(copra::core::kGshareSpec)
                             .accuracyPercent();
            row.staticGshare =
                copra::sim::run(trace, static_gshare).accuracyPercent();
            row.pas = experiment.ledgerFor(copra::core::kPasSpec)
                          .accuracyPercent();
            row.staticPas =
                copra::sim::run(trace, static_pas).accuracyPercent();
            row.biasHybrid =
                copra::sim::run(trace, bias_hybrid).accuracyPercent();
            row.stronglyBiased = bias_hybrid.stronglyBiasedBranches();
            return row;
        });

    copra::Table table({"benchmark", "gshare", "static-PHT gshare", "PAs",
                        "static-PHT PAs", "bias-hybrid(gshare)",
                        "strongly biased branches"});
    const auto &names = copra::workload::benchmarkNames();
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &row = rows[i];
        table.row()
            .cell(names[i])
            .cell(row.gshare, 2)
            .cell(row.staticGshare, 2)
            .cell(row.pas, 2)
            .cell(row.staticPas, 2)
            .cell(row.biasHybrid, 2)
            .cell(row.stronglyBiased);
    }
    copra::bench::printTable(table, opts);

    std::printf("\nexpectation (paper §2.2): with profiling == testing "
                "set, static PHTs are on par with or above 2-bit "
                "counters; bias classification never hurts and frees "
                "dynamic capacity.\n");
    copra::bench::finish("ablation_adaptivity", opts, timing);
    return 0;
}
