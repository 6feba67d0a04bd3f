/**
 * @file
 * Correlation explorer: runs the selective-history oracle on one
 * benchmark and shows, for the most-executed hard branches, which prior
 * branch instances carry the most information — the per-branch view
 * behind the paper's Fig. 4 aggregate.
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "core/experiments.hpp"
#include "core/tagging.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

namespace {

std::string
tagToString(const copra::core::Tag &tag)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s(0x%llx,%u)",
                  tag.method() == copra::core::TagMethod::Occurrence
                      ? "occ" : "bwd",
                  static_cast<unsigned long long>(tag.pc()), tag.num());
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string benchmark = "gcc";
    uint64_t branches = 300000;
    uint64_t top = 12;

    copra::OptionParser options(
        "copra correlation explorer: per-branch selective-history "
        "selections and the accuracy they unlock");
    options.addString("benchmark", &benchmark, "benchmark name");
    options.addUint("branches", &branches, "dynamic branches to simulate");
    options.addUint("top", &top, "hard branches to display");
    if (!options.parse(argc, argv))
        return 0;
    copra::fatalIf(branches == 0, "--branches must be at least 1");

    copra::core::ExperimentConfig config;
    config.branches = branches;
    config.mineConditionals = branches;
    copra::core::BenchmarkExperiment experiment(benchmark, config);

    const auto &oracle = experiment.oracle();
    const auto &gshare = experiment.ledgerFor(copra::core::kGshareSpec);

    // Rank branches by mispredictions under gshare: the interesting ones.
    // Ties go to the lower pc, so the order is the data's, not the sort's.
    std::vector<const copra::core::BranchSelection *> hard;
    for (const auto &[pc, sel] : oracle.branches())
        hard.push_back(&sel);
    std::sort(hard.begin(), hard.end(),
              [&](const auto *a, const auto *b) {
                  auto ga = gshare.branch(a->pc);
                  auto gb = gshare.branch(b->pc);
                  uint64_t ma = ga.execs - ga.correct;
                  uint64_t mb = gb.execs - gb.correct;
                  return ma != mb ? ma > mb : a->pc < b->pc;
              });
    if (hard.size() > top)
        hard.resize(top);

    copra::Table table({"pc", "execs", "gshare %", "sel-1 %", "sel-3 %",
                        "best single correlated instance"});
    for (const auto *sel : hard) {
        auto g = gshare.branch(sel->pc);
        char pc_buf[32];
        std::snprintf(pc_buf, sizeof(pc_buf), "0x%llx",
                      static_cast<unsigned long long>(sel->pc));
        std::string best_tag = sel->chosen[0].empty()
            ? "(none)" : tagToString(sel->chosen[0][0]);
        table.row()
            .cell(std::string(pc_buf))
            .cell(sel->execs)
            .cell(100.0 * g.accuracy(), 2)
            .cell(100.0 * sel->correct[0] / sel->execs, 2)
            .cell(100.0 * sel->correct[2] / sel->execs, 2)
            .cell(best_tag);
    }
    table.print(std::cout);

    std::printf("\naggregate: sel-1 %.2f%%  sel-2 %.2f%%  sel-3 %.2f%%  "
                "IF-gshare %.2f%%  gshare %.2f%%\n",
                oracle.toLedger(1).accuracyPercent(),
                oracle.toLedger(2).accuracyPercent(),
                oracle.toLedger(3).accuracyPercent(),
                experiment.ledgerFor(copra::core::kIfGshareSpec)
                    .accuracyPercent(),
                gshare.accuracyPercent());
    return 0;
}
