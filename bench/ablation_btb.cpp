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

#include <array>
#include <iterator>
#include <string>
#include <vector>

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

    const auto &classes = classifier.branches();
    copra::requireAligned(classes, ledger.table(),
                          "ablation_btb: ledger covers a different trace");
    uint64_t execs = 0;
    uint64_t correct = 0;
    for (size_t i = 0; i < classes.size(); ++i) {
        if (classes[i].second.cls != copra::core::PaClass::Loop)
            continue;
        execs += ledger.table()[i].second.execs;
        correct += ledger.table()[i].second.correct;
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
    static const Geometry geometries[] = {
        {"perfect", BtbConfig::perfect()},
        {"1024x4", BtbConfig::finite(10, 4)},
        {"256x4", BtbConfig::finite(8, 4)},
        {"64x2", BtbConfig::finite(6, 2)},
        {"16x1", BtbConfig::finite(4, 1)},
    };
    constexpr size_t kGeometries = std::size(geometries);

    struct Row
    {
        double loopFraction = 0.0;
        std::array<double, kGeometries> accuracy{};
        uint64_t smallestEvictions = 0;
    };
    copra::bench::SuiteTiming timing;
    auto rows = copra::bench::runSuite(
        opts, timing, [](copra::core::BenchmarkExperiment &experiment) {
            const copra::core::PaClassifier &classifier =
                experiment.classifier();
            Row row;
            row.loopFraction = classifier.classFractions()[static_cast<
                size_t>(copra::core::PaClass::Loop)];
            for (size_t g = 0; g < kGeometries; ++g)
                row.accuracy[g] = loopClassAccuracy(
                    experiment.trace(), classifier, geometries[g].config,
                    &row.smallestEvictions);
            return row;
        });

    std::vector<std::string> headers = {"benchmark", "loop-class dyn %"};
    for (const auto &g : geometries)
        headers.push_back(g.label);
    headers.push_back("evictions@16x1");
    copra::Table table(headers);
    const auto &names = copra::workload::benchmarkNames();
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &row = rows[i];
        table.row().cell(names[i]);
        table.cell(100.0 * row.loopFraction, 1);
        for (double accuracy : row.accuracy)
            table.cell(accuracy, 2);
        table.cell(row.smallestEvictions);
    }
    copra::bench::printTable(table, opts);

    std::printf("\nexpectation: generous BTBs match perfect on the "
                "loop-class branches; small ones lose trip-count state "
                "on every conflict and degrade toward the cold "
                "default.\n");
    copra::bench::finish("ablation_btb", opts, timing);
    return 0;
}
