/**
 * @file
 * Figure 10 (extension) — the modern predictor roster over the paper's
 * suite: TAGE-lite, hashed perceptron and a tournament (chooser over
 * local PAs / global gshare with a BTB miss model) next to the paper's
 * gshare baseline, plus hard-to-predict (H2P) branch analysis after
 * Lin & Tarsa (PAPERS.md). The H2P table uses the per-branch best-of
 * combination of all four predictors — "the best predictor we have" —
 * and reports how concentrated the surviving mispredictions are
 * (per-static-branch misprediction CDF).
 */

#include "bench_common.hpp"
#include "core/h2p.hpp"
#include "util/table.hpp"
#include "workload/profiles.hpp"

namespace {

/** Everything one benchmark contributes to the two tables. */
struct Fig10Row
{
    double gshare = 0.0;     //!< accuracy %
    double tage = 0.0;
    double perceptron = 0.0;
    double tournament = 0.0;
    uint64_t h2pPerPred[4] = {0, 0, 0, 0}; //!< H2P count per predictor
    uint64_t h2pBest = 0;       //!< H2P count under best-of
    double h2pStaticPct = 0.0;  //!< % of static branches that are H2P
    double h2pMispredPct = 0.0; //!< % of best-of mispredicts on H2Ps
    double cdfTop1 = 0.0;       //!< mispredict share of worst 1% branches
    double cdfTop10 = 0.0;      //!< mispredict share of worst 10% branches
};

} // namespace

int
main(int argc, char **argv)
{
    copra::bench::BenchOptions opts;
    if (!opts.parse(argc, argv,
                    "Figure 10 (extension): modern roster accuracy "
                    "(TAGE-lite, perceptron, tournament) and H2P "
                    "analysis under the per-branch best-of combination"))
        return 0;
    copra::bench::banner(
        "Figure 10: modern roster (TAGE / perceptron / tournament) + H2P",
        opts);

    copra::bench::SuiteTiming timing;
    auto rows = copra::bench::runSuite(
        opts, timing,
        [](copra::core::BenchmarkExperiment &experiment) {
            Fig10Row row;
            const copra::sim::Ledger &gshare =
                experiment.ledgerFor(copra::core::kGshareSpec);
            const copra::sim::Ledger &tage = experiment.ledgerFor("tage");
            const copra::sim::Ledger &perceptron =
                experiment.ledgerFor("perceptron");
            const copra::sim::Ledger &tournament =
                experiment.ledgerFor("tournament");
            row.gshare = gshare.accuracyPercent();
            row.tage = tage.accuracyPercent();
            row.perceptron = perceptron.accuracyPercent();
            row.tournament = tournament.accuracyPercent();

            const copra::sim::Ledger *all[4] = {&gshare, &tage,
                                                &perceptron, &tournament};
            for (int i = 0; i < 4; ++i)
                row.h2pPerPred[i] =
                    copra::core::identifyH2p(*all[i]).branches.size();
            copra::sim::Ledger best = copra::core::bestPerBranchLedger(
                {&gshare, &tage, &perceptron, &tournament});
            copra::core::H2pReport report = copra::core::identifyH2p(best);
            row.h2pBest = report.branches.size();
            row.h2pStaticPct = 100.0 * report.staticFraction();
            row.h2pMispredPct = 100.0 * report.mispredictFraction();
            copra::core::MispredictCdf cdf =
                copra::core::mispredictCdf(best);
            row.cdfTop1 = 100.0 * cdf.fractionFromTopPercent(1.0);
            row.cdfTop10 = 100.0 * cdf.fractionFromTopPercent(10.0);
            return row;
        });

    const auto &names = copra::workload::benchmarkNames();

    copra::Table accuracy({"benchmark", "gshare %", "TAGE %",
                           "perceptron %", "tournament %"});
    double sums[4] = {0, 0, 0, 0};
    for (size_t i = 0; i < rows.size(); ++i) {
        const Fig10Row &row = rows[i];
        accuracy.row()
            .cell(names[i])
            .cell(row.gshare, 2)
            .cell(row.tage, 2)
            .cell(row.perceptron, 2)
            .cell(row.tournament, 2);
        sums[0] += row.gshare;
        sums[1] += row.tage;
        sums[2] += row.perceptron;
        sums[3] += row.tournament;
    }
    accuracy.row().cell("average");
    for (double sum : sums)
        accuracy.cell(sum / rows.size(), 2);
    copra::bench::printTable(accuracy, opts);

    std::printf("\nH2P branches (>=1k execs, <99%% accuracy) per "
                "predictor, and under the per-branch best-of:\n\n");
    copra::Table h2p({"benchmark", "gshare", "TAGE", "perceptron",
                      "tournament", "best-of", "static %", "mispred %",
                      "top 1% CDF", "top 10% CDF"});
    for (size_t i = 0; i < rows.size(); ++i) {
        const Fig10Row &row = rows[i];
        h2p.row().cell(names[i]);
        for (uint64_t count : row.h2pPerPred)
            h2p.cell(count);
        h2p.cell(row.h2pBest)
            .cell(row.h2pStaticPct, 1)
            .cell(row.h2pMispredPct, 1)
            .cell(row.cdfTop1, 1)
            .cell(row.cdfTop10, 1);
    }
    copra::bench::printTable(h2p, opts);

    std::printf("\nextension of the paper's per-branch analysis; H2P "
                "criterion after Lin & Tarsa (no paper counterpart).\n");
    copra::bench::finish("fig10_modern_roster", opts, timing);
    return 0;
}
