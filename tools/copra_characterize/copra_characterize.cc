/**
 * @file
 * copra_characterize: per-workload predictability fingerprints.
 *
 * Computes the fingerprint of core/characterize.hpp — footprint, bias,
 * history-conditioned entropy curves H(k), reference gshare accuracy,
 * and the Lin-Tarsa H2P set — for named suite workloads and/or trace
 * files, prints a table, and optionally emits schema'd JSON
 * (docs/schema/fingerprint.schema.json).
 *
 * --doc-workloads regenerates docs/WORKLOADS.md from the live workload
 * registry at a pinned budget; the workloads_doc_drift ctest gate runs
 * it through tests/doc_drift.sh so the committed doc can never go
 * stale (the house pattern of METRICS.md / HOT_PATH.md).
 *
 * Examples:
 *   copra_characterize --workloads gcc,interp --branches 200000
 *   copra_characterize --all --json fingerprints.json
 *   copra_characterize --trace mine.trc
 *   copra_characterize --doc-workloads > docs/WORKLOADS.md
 */

#include <climits>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/characterize.hpp"
#include "obs/manifest.hpp"
#include "obs/registry.hpp"
#include "trace/trace_io.hpp"
#include "util/cli.hpp"
#include "util/env.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"
#include "workload/frontier.hpp"
#include "workload/profiles.hpp"

using namespace copra;

namespace {

/** Pinned budget of the generated docs/WORKLOADS.md fingerprint table:
 * small enough for a doc-drift ctest gate, large enough that every
 * fingerprint column is stable. */
constexpr uint64_t kDocBranches = 200000;

std::vector<std::string>
splitNames(const std::string &csv)
{
    std::vector<std::string> names;
    std::istringstream in(csv);
    std::string name;
    while (std::getline(in, name, ','))
        if (!name.empty())
            names.push_back(name);
    return names;
}

/** Fingerprint every suite workload at @p branches, in suite order,
 * fanning the per-workload work across the global pool. */
std::vector<core::WorkloadFingerprint>
fingerprintSuite(const std::vector<std::string> &names, uint64_t branches,
                 uint64_t seed, const core::CharacterizeOptions &options)
{
    std::vector<core::WorkloadFingerprint> fps(names.size());
    parallelFor(globalPool(), names.size(), [&](size_t i) {
        trace::Trace trace =
            workload::makeBenchmarkTrace(names[i], branches, seed);
        fps[i] = core::characterizeTrace(trace, options);
    });
    return fps;
}

void
printFingerprint(const core::WorkloadFingerprint &fp)
{
    std::printf("%s (%s): records=%llu conditionals=%llu static=%llu\n",
                fp.name.c_str(), fp.family.c_str(),
                static_cast<unsigned long long>(fp.records),
                static_cast<unsigned long long>(fp.conditionals),
                static_cast<unsigned long long>(fp.staticBranches));
    std::printf("  taken-rate=%.4f biased(>99%%)=%.4f\n", fp.takenRate,
                fp.biasedFraction99);
    std::printf("  H(k) bits/branch (global/local):");
    for (const core::HistoryEntropyPoint &point : fp.curve)
        std::printf(" k=%u:%.3f/%.3f", point.depth, point.globalBits,
                    point.localBits);
    std::printf("\n");
    std::printf("  history gain: global=%.3f local=%.3f bits\n",
                fp.globalHistoryGainBits(), fp.localHistoryGainBits());
    if (std::isnan(fp.gshareAccuracyPercent)) {
        std::printf("  gshare: n/a\n");
    } else {
        std::printf("  gshare=%.2f%% h2p: branches=%llu static=%.4f "
                    "mispredicts=%.4f\n",
                    fp.gshareAccuracyPercent,
                    static_cast<unsigned long long>(fp.h2pBranches),
                    fp.h2pStaticFraction, fp.h2pMispredictFraction);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    OptionParser parser(
        "per-workload predictability fingerprints (taken-rate, "
        "history-conditioned entropy, H2P fraction) and the generator "
        "of docs/WORKLOADS.md");
    std::string workloads;
    parser.addString("workloads", &workloads,
                     "comma-separated suite workload names");
    bool all = false;
    parser.addFlag("all", &all,
                   "fingerprint the whole suite (paper + frontier)");
    std::string trace_path;
    parser.addString("trace", &trace_path,
                     "fingerprint a binary trace file (cache-v4)");
    uint64_t branches = 200000;
    parser.addUint("branches", &branches,
                   "conditional branches per generated workload");
    uint64_t seed = 0;
    parser.addUint("seed", &seed, "workload seed (0 = canonical)");
    std::string json_path;
    parser.addString("json", &json_path,
                     "write fingerprints as schema'd JSON here");
    bool no_predictor = false;
    parser.addFlag("no-predictor", &no_predictor,
                   "skip the reference gshare run and H2P analysis");
    bool doc_workloads = false;
    parser.addFlag("doc-workloads", &doc_workloads,
                   "print docs/WORKLOADS.md regenerated from the "
                   "workload registry and exit");
    uint64_t threads = 0;
    parser.addUint("threads", &threads,
                   "worker threads (0 = COPRA_THREADS or hardware)",
                   UINT_MAX);
    std::string metrics_out = util::envString("COPRA_METRICS_OUT", "");
    parser.addString("metrics-out", &metrics_out,
                     "write a run-manifest JSON here "
                     "($COPRA_METRICS_OUT; empty = off)");
    if (!parser.parse(argc, argv))
        return 0;
    fatalIf(branches == 0, "--branches must be at least 1");
    setGlobalPoolThreads(static_cast<unsigned>(threads));
    obs::setEnabled(!metrics_out.empty());

    core::CharacterizeOptions options;
    options.withPredictor = !no_predictor;

    if (doc_workloads) {
        std::vector<core::WorkloadFingerprint> fps = fingerprintSuite(
            workload::workloadSuiteNames(), kDocBranches, 0, options);
        std::fputs(core::renderWorkloadsDoc(fps, kDocBranches).c_str(),
                   stdout);
        return 0;
    }

    std::vector<std::string> names = splitNames(workloads);
    if (all)
        names = workload::workloadSuiteNames();
    if (names.empty() && trace_path.empty()) {
        std::fprintf(stderr,
                     "copra_characterize: nothing to do (use "
                     "--workloads, --all, or --trace)\n");
        return 2;
    }

    std::vector<core::WorkloadFingerprint> fps;
    try {
        fps = fingerprintSuite(names, branches, seed, options);
        if (!trace_path.empty()) {
            trace::Trace trace = trace::loadBinary(trace_path);
            fps.push_back(core::characterizeTrace(trace, options));
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "copra_characterize: %s\n", e.what());
        return 1;
    }

    for (const core::WorkloadFingerprint &fp : fps)
        printFingerprint(fp);

    if (!json_path.empty()) {
        std::ofstream out(json_path, std::ios::binary);
        if (!out) {
            std::fprintf(stderr,
                         "copra_characterize: cannot write '%s'\n",
                         json_path.c_str());
            return 1;
        }
        out << core::fingerprintsToJson(fps).dump(2) << "\n";
    }

    // Only the generated workloads fan out on the pool (--trace alone
    // runs serially).
    obs::finishRun(obs::runInfo("copra_characterize", argc, argv, seed,
                                !names.empty()),
                   metrics_out, false);
    return 0;
}
