/**
 * @file
 * Loop taxonomy: classifies every branch of a benchmark into the paper's
 * per-address predictability classes (§4) and prints the distribution
 * plus sample branches from each class — the per-branch view behind the
 * paper's Fig. 6.
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "core/pa_class.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"
#include "workload/profiles.hpp"

int
main(int argc, char **argv)
{
    std::string benchmark = "ijpeg";
    uint64_t branches = 300000;
    uint64_t samples = 4;

    copra::OptionParser options(
        "copra loop taxonomy: per-address predictability classes of one "
        "benchmark");
    options.addString("benchmark", &benchmark, "benchmark name");
    options.addUint("branches", &branches, "dynamic branches to simulate");
    options.addUint("samples", &samples, "sample branches per class");
    if (!options.parse(argc, argv))
        return 0;
    copra::fatalIf(branches == 0, "--branches must be at least 1");

    auto trace = copra::workload::makeBenchmarkTrace(benchmark, branches, 0);
    copra::core::PaClassifier classifier(trace);

    auto fractions = classifier.classFractions();
    std::printf("%s dynamic-weighted class distribution:\n",
                benchmark.c_str());
    for (unsigned c = 0; c < 4; ++c) {
        std::printf("  %-14s %6.2f%%\n",
                    copra::core::paClassName(
                        static_cast<copra::core::PaClass>(c)),
                    100.0 * fractions[c]);
    }
    std::printf("  (%.0f%% of the static bucket is >99%% biased)\n\n",
                100.0 * classifier.staticBucketBiasFraction());

    // Show the hottest branches of each class, ties to the lower pc.
    for (unsigned c = 0; c < 4; ++c) {
        auto cls = static_cast<copra::core::PaClass>(c);
        std::vector<const copra::core::PaBranchResult *> members;
        for (const auto &[pc, res] : classifier.branches())
            if (res.cls == cls)
                members.push_back(&res);
        std::sort(members.begin(), members.end(),
                  [](const auto *a, const auto *b) {
                      return a->execs != b->execs ? a->execs > b->execs
                                                  : a->pc < b->pc;
                  });
        if (members.size() > samples)
            members.resize(samples);

        std::printf("%s examples:\n", copra::core::paClassName(cls));
        copra::Table table({"pc", "execs", "loop %", "repeat %",
                            "non-rep %", "static %", "best k"});
        for (const auto *res : members) {
            char pc_buf[32];
            std::snprintf(pc_buf, sizeof(pc_buf), "0x%llx",
                          static_cast<unsigned long long>(res->pc));
            double e = static_cast<double>(res->execs);
            table.row()
                .cell(std::string(pc_buf))
                .cell(res->execs)
                .cell(100.0 * res->loopCorrect / e, 1)
                .cell(100.0 * res->repeatingCorrect() / e, 1)
                .cell(100.0 * res->ifPasCorrect / e, 1)
                .cell(100.0 * res->staticCorrect / e, 1)
                .cell(static_cast<uint64_t>(res->bestFixedK));
        }
        table.print(std::cout);
        std::printf("\n");
    }
    return 0;
}
