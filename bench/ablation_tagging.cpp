/**
 * @file
 * Ablation — instance tagging methods (§3.2): the paper tags candidate
 * instances by occurrence numbering AND backward-branch counting and
 * treats the union as the candidate space. This harness reruns the
 * 3-branch selective oracle with each method alone to quantify what the
 * union buys.
 */

#include <vector>

#include "bench_common.hpp"
#include "core/oracle.hpp"
#include "util/table.hpp"
#include "workload/profiles.hpp"

int
main(int argc, char **argv)
{
    copra::bench::BenchOptions opts;
    opts.config.branches = 500000;
    opts.config.mineConditionals = 500000;
    if (!opts.parse(argc, argv,
                    "Ablation: selective-history accuracy with each "
                    "instance-tagging method alone vs both"))
        return 0;
    copra::bench::banner("Ablation: tagging methods (sel-3 accuracy)",
                         opts);

    copra::bench::SuiteTiming timing;
    auto rows = copra::bench::runSuite(
        opts, timing, [](copra::core::BenchmarkExperiment &experiment) {
            using Filter = copra::core::OracleConfig::TagFilter;
            copra::core::OracleConfig oc =
                copra::core::oracleConfig(experiment.config());
            std::vector<double> accuracy;
            for (Filter filter : {Filter::OccurrenceOnly,
                                  Filter::BackwardOnly, Filter::Both}) {
                oc.tagFilter = filter;
                copra::core::SelectiveOracle oracle(experiment.trace(), oc);
                accuracy.push_back(oracle.toLedger(3).accuracyPercent());
            }
            return accuracy;
        });

    copra::Table table({"benchmark", "occurrence only", "backward only",
                        "both (paper)"});
    const auto &names = copra::workload::benchmarkNames();
    for (size_t i = 0; i < rows.size(); ++i) {
        table.row().cell(names[i]);
        for (double accuracy : rows[i])
            table.cell(accuracy, 2);
    }
    copra::bench::printTable(table, opts);

    std::printf("\nexpectation: the union tracks the better single "
                "method within noise on every benchmark (a tenth of a "
                "point of dilution is possible: duplicated tags crowd "
                "the fixed-size candidate pool). Its value is "
                "robustness - each method wins somewhere (DESIGN.md "
                "SS5.1).\n");
    copra::bench::finish("ablation_tagging", opts, timing);
    return 0;
}
