/**
 * @file
 * Ablation — instance tagging methods (§3.2): the paper tags candidate
 * instances by occurrence numbering AND backward-branch counting and
 * treats the union as the candidate space. This harness reruns the
 * 3-branch selective oracle with each method alone to quantify what the
 * union buys.
 */

#include <iostream>

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

    using Filter = copra::core::OracleConfig::TagFilter;
    copra::Table table({"benchmark", "occurrence only", "backward only",
                        "both (paper)"});
    for (const auto &name : copra::workload::benchmarkNames()) {
        auto trace = copra::core::makeExperimentTrace(name, opts.config);
        table.row().cell(name);
        for (Filter filter : {Filter::OccurrenceOnly,
                              Filter::BackwardOnly, Filter::Both}) {
            copra::core::OracleConfig oc;
            oc.historyDepth = opts.config.historyDepth;
            oc.candidatePool = opts.config.candidatePool;
            oc.mineConditionals = opts.config.mineConditionals;
            oc.tagFilter = filter;
            copra::core::SelectiveOracle oracle(trace, oc);
            table.cell(oracle.accuracyPercent(3), 2);
        }
    }
    if (opts.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);

    std::printf("\nexpectation: the union tracks the better single "
                "method within noise on every benchmark (a tenth of a "
                "point of dilution is possible: duplicated tags crowd "
                "the fixed-size candidate pool). Its value is "
                "robustness - each method wins somewhere (DESIGN.md "
                "SS5.1).\n");
    copra::bench::finish("ablation_tagging", opts);
    return 0;
}
