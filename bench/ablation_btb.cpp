/**
 * @file
 * Ablation — the perfect-BTB assumption (paper §4.1.1): the class
 * predictors keep per-branch counts "in a perfect BTB to prevent
 * interference from affecting our classification". This harness reruns
 * the loop predictor over finite set-associative BTBs and measures its
 * accuracy on the loop-class branches (the population the instrument
 * exists to classify): conflict evictions lose trip-count state exactly
 * where it matters.
 *
 * Measuring over *all* branches would mislead here: on non-loop
 * branches the loop state machine is worse than a cold taken default,
 * so a thrashing BTB can look "better" overall while destroying the
 * classification signal.
 */

#include <iostream>

#include "bench_common.hpp"
#include "core/pa_class.hpp"
#include "predictor/btb.hpp"
#include "predictor/loop_predictor.hpp"
#include "sim/driver.hpp"
#include "util/table.hpp"
#include "workload/profiles.hpp"

namespace {

/** Loop-class accuracy of one geometry over one trace. */
double
loopClassAccuracy(const copra::trace::Trace &trace,
                  const copra::core::PaClassifier &classifier,
                  const copra::predictor::BtbConfig &config,
                  uint64_t *evictions)
{
    copra::predictor::LoopPredictor pred(config);
    copra::sim::Ledger ledger;
    copra::sim::run(trace, pred, &ledger);
    if (evictions != nullptr)
        *evictions = pred.btbEvictions();

    uint64_t execs = 0;
    uint64_t correct = 0;
    // copra-lint: allow(unordered-iter) -- commutative integer aggregation; result is order-independent
    for (const auto &[pc, res] : classifier.branches()) {
        if (res.cls != copra::core::PaClass::Loop)
            continue;
        auto tally = ledger.branch(pc);
        execs += tally.execs;
        correct += tally.correct;
    }
    if (execs == 0)
        return 0.0;
    return 100.0 * static_cast<double>(correct)
        / static_cast<double>(execs);
}

} // namespace

int
main(int argc, char **argv)
{
    copra::bench::BenchOptions opts;
    opts.config.branches = 1000000;
    if (!opts.parse(argc, argv,
                    "Ablation: loop predictor accuracy on loop-class "
                    "branches under perfect vs finite BTBs"))
        return 0;
    copra::bench::banner("Ablation: perfect-BTB assumption "
                         "(loop-class accuracy)",
                         opts);

    using copra::predictor::BtbConfig;
    struct Geometry
    {
        const char *label;
        BtbConfig config;
    };
    const Geometry geometries[] = {
        {"perfect", BtbConfig::perfect()},
        {"1024x4", BtbConfig::finite(10, 4)},
        {"256x4", BtbConfig::finite(8, 4)},
        {"64x2", BtbConfig::finite(6, 2)},
        {"16x1", BtbConfig::finite(4, 1)},
    };

    std::vector<std::string> headers = {"benchmark", "loop-class dyn %"};
    for (const auto &g : geometries)
        headers.push_back(g.label);
    headers.push_back("evictions@16x1");
    copra::Table table(headers);

    for (const auto &name : copra::workload::benchmarkNames()) {
        auto trace = copra::workload::makeBenchmarkTrace(
            name, opts.config.branches, opts.config.seed);
        copra::core::PaClassifier classifier(trace,
                                             opts.config.ifPasHistory);
        table.row().cell(name);
        table.cell(
            100.0 * classifier.classFractions()[static_cast<size_t>(
                copra::core::PaClass::Loop)],
            1);
        uint64_t smallest_evictions = 0;
        for (const auto &g : geometries) {
            uint64_t evictions = 0;
            table.cell(loopClassAccuracy(trace, classifier, g.config,
                                         &evictions),
                       2);
            smallest_evictions = evictions;
        }
        table.cell(smallest_evictions);
    }
    if (opts.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);

    std::printf("\nexpectation: generous BTBs match perfect on the "
                "loop-class branches; small ones lose trip-count state "
                "on every conflict and degrade toward the cold "
                "default.\n");
    copra::bench::finish("ablation_btb", opts);
    return 0;
}
