/**
 * @file
 * copra_check — the differential verification CLI.
 *
 * Default mode replays a range of fuzzed adversarial traces through
 * every predictor pair (optimized vs reference) and exits non-zero on
 * any per-branch prediction mismatch, printing a minimized reproducer.
 *
 * The same campaign diffs the oracle's mine and record phases against
 * their collect-and-probe references and its greedy selection against
 * a one-subset-at-a-time replay (pairs "oracle-mine", "oracle-record"
 * and "oracle-select", on their own fuzzed traces;
 * check/record_check.hpp).
 *
 * --inject <bug|all> flips into self-test mode: a deliberately broken
 * predictor (or oracle window walk or run scorer) is swapped in, and
 * the exit code is zero only if the suite *does* catch the bug and
 * shrinks it to a small
 * reproducer — proving the harness can actually detect the class of
 * defect it exists for. Of the 11 planted bugs, hot-path-alloc is
 * caught by the hot gates below, the rest by the differentials.
 *
 * --ingest-gates verifies the foreign-trace path end to end over a
 * committed sample (--sample): reference ingest, emit-then-load SoA
 * identity of the cache-v4 file, record round-trip, cross-format
 * (text/CSV) agreement, corruption fuzz through the loader, and
 * re-sealed forgeries (check/ingest_gates.hpp).
 *
 * --hot-gates replays fuzzed traces through the roster's SoA hot path
 * and asserts a steady-state replay performs zero heap allocations
 * (this binary replaces operator new to count — check/alloc_probe.cc)
 * and zero lock acquisitions (check/hot_gates.hpp): the runtime half
 * of the copra_lint hot-path discipline (DESIGN.md §15).
 *
 * Examples:
 *   copra_check                         # 100 traces, all pairs
 *   copra_check --traces 500 --branches 5000
 *   copra_check --pairs pas             # only pairs whose name has "pas"
 *   copra_check --inject all            # harness self-test
 *   copra_check --repro-dir /tmp/repro  # dump reproducer .trace files
 *   copra_check --ingest-gates --sample tests/data/sample_foreign.trace
 *   copra_check --hot-gates --traces 3
 */

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "check/differential.hpp"
#include "check/fuzz.hpp"
#include "check/hot_gates.hpp"
#include "check/ingest_gates.hpp"
#include "check/record_check.hpp"
#include "obs/manifest.hpp"
#include "obs/registry.hpp"
#include "trace/trace_io.hpp"
#include "util/cli.hpp"
#include "util/env.hpp"
#include "util/logging.hpp"

namespace {

using namespace copra;

/** The --pairs names of the oracle-phase differentials. */
constexpr const char *kMinePairs = "oracle-mine";
constexpr const char *kRecordPairs = "oracle-record";
constexpr const char *kSelectPairs = "oracle-select";

/** Write one failure's reproducer as a text trace under @p dir. */
void
dumpReproducer(const std::string &dir, const check::SuiteFailure &failure)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        warn("cannot create " + dir + ": " + ec.message());
        return;
    }
    std::string safe = failure.pair;
    for (char &c : safe) {
        if (!isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    std::string path = dir + "/" + safe + "-seed" +
        std::to_string(failure.seed) + ".trace";
    std::ofstream os(path);
    if (!os) {
        warn("cannot write " + path);
        return;
    }
    trace::writeText(failure.reproducer, os);
    std::printf("  reproducer written to %s\n", path.c_str());
}

/**
 * Self-test of the hot gates: run them over the planted @p bug alone
 * and return true when they fail. hot-path-alloc predicts
 * bit-identically but allocates per batch, so only the hot gates'
 * steady-state allocation probe can see it.
 */
bool
runHotGateSelfTest(check::InjectedBug bug,
                   const check::SuiteOptions &options)
{
    check::CheckPair pair = check::injectedBugPair(bug);
    check::HotGateOptions gate_options;
    gate_options.seedBase = options.seedBase;
    gate_options.traces = options.traces;
    gate_options.conditionals = options.conditionals;
    check::GateReport report =
        check::runHotGates(gate_options, {{pair.name, pair.optimized}});
    const char *name = check::injectedBugName(bug);
    if (report.ok()) {
        std::printf("MISSED  %s: %llu hot-gate checks found nothing — "
                    "the allocation probe failed its self-test\n",
                    name, static_cast<unsigned long long>(report.gatesRun));
        return false;
    }
    const check::GateFailure &first = report.failures.front();
    std::printf("caught  %-30s gate=%-14s seed=%llu\n", name,
                first.gate.c_str(),
                static_cast<unsigned long long>(first.seed));
    return true;
}

int
runInjected(const std::string &which, const check::SuiteOptions &options,
            const std::string &repro_dir)
{
    int failed = 0;
    unsigned matched = 0;
    for (unsigned i = 0; i < check::kInjectedBugCount; ++i) {
        auto bug = static_cast<check::InjectedBug>(i);
        if (which != "all" && which != check::injectedBugName(bug))
            continue;
        ++matched;
        if (bug == check::InjectedBug::HotPathAlloc) {
            // Sanitizer builds own the allocator; the Release CI leg
            // carries this proof.
            if (!check::allocProbeLinked()) {
                std::printf("skipped hot-path-alloc: allocation probe "
                            "absent (sanitizer build owns the "
                            "allocator)\n");
            } else if (!runHotGateSelfTest(bug, options)) {
                ++failed;
            }
            continue;
        }
        check::SuiteReport report = check::runInjectedSuite(options, bug);
        if (report.ok()) {
            std::printf("MISSED  %s: %llu traces found nothing — the "
                        "harness failed its self-test\n",
                        check::injectedBugName(bug),
                        static_cast<unsigned long long>(report.tracesRun));
            ++failed;
            continue;
        }
        const check::SuiteFailure &first = report.failures.front();
        std::printf("caught  %-30s path=%-8s reproducer=%llu records\n",
                    check::injectedBugName(bug), first.first.path.c_str(),
                    static_cast<unsigned long long>(
                        first.reproducer.size()));
        if (!repro_dir.empty())
            dumpReproducer(repro_dir, first);
    }
    fatalIf(matched == 0,
            "unknown injected bug '" + which +
                "' (see --list-pairs for the injected:* names)");
    return failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    check::SuiteOptions options;
    std::string pairs_filter;
    std::string inject;
    std::string repro_dir;
    bool list_pairs = false;
    bool no_minimize = false;
    uint64_t traces = options.traces;
    uint64_t branches = options.conditionals;
    uint64_t seed_base = options.seedBase;

    OptionParser parser(
        "Differential verification: fuzzed traces through optimized "
        "predictors vs reference models");
    parser.addUint("traces", &traces, "fuzzed traces to replay");
    parser.addUint("branches", &branches,
                   "conditional branches per fuzzed trace");
    parser.addUint("seed-base", &seed_base, "first fuzz seed");
    parser.addString("pairs", &pairs_filter,
                     "only run pairs whose name contains this substring");
    parser.addString("inject", &inject,
                     "self-test: plant a bug (name or 'all') and require "
                     "the suite to catch it");
    parser.addString("repro-dir", &repro_dir,
                     "directory for minimized reproducer .trace files");
    parser.addFlag("list-pairs", &list_pairs, "list pair names and exit");
    parser.addFlag("no-minimize", &no_minimize,
                   "report raw failing traces without shrinking");
    bool hot_gates = false;
    parser.addFlag("hot-gates", &hot_gates,
                   "run the steady-state zero-allocation / zero-lock "
                   "hot-path gates over the whole factory roster");
    bool ingest_gates = false;
    parser.addFlag("ingest-gates", &ingest_gates,
                   "run the foreign-trace ingestion gates (sample "
                   "ingest, emit/load identity, round-trip, "
                   "corruption fuzz, forgeries) over --sample");
    std::string sample_path;
    parser.addString("sample", &sample_path,
                     "with --ingest-gates: committed sample foreign "
                     "trace to gate on");
    std::string metrics_out =
        util::envString("COPRA_METRICS_OUT", "");
    bool metrics_summary = false;
    parser.addString("metrics-out", &metrics_out,
                     "write a run-manifest JSON here "
                     "($COPRA_METRICS_OUT; empty = off)");
    parser.addFlag("metrics-summary", &metrics_summary,
                   "print non-zero telemetry instruments to stderr");
    if (!parser.parse(argc, argv))
        return 0;
    obs::setEnabled(!metrics_out.empty() || metrics_summary);

    options.traces = traces;
    options.conditionals = branches;
    options.seedBase = seed_base;
    options.minimize = !no_minimize;

    if (list_pairs) {
        for (const check::CheckPair &pair : check::defaultCheckPairs())
            std::printf("%s\n", pair.name.c_str());
        std::printf("%s\n%s\n%s\n", kMinePairs, kRecordPairs,
                    kSelectPairs);
        for (unsigned i = 0; i < check::kInjectedBugCount; ++i) {
            std::printf("injected:%s\n", check::injectedBugName(
                static_cast<check::InjectedBug>(i)));
        }
        return 0;
    }

    if (ingest_gates) {
        fatalIf(sample_path.empty(),
                "--ingest-gates needs --sample <foreign trace>");
        check::IngestGateOptions gate_options;
        gate_options.samplePath = sample_path;
        gate_options.seedBase = seed_base;
        check::GateReport report = check::runIngestGates(gate_options);
        std::fputs(check::formatGateReport("ingest gates", report).c_str(),
                   stdout);
        return report.ok() ? 0 : 1;
    }

    if (hot_gates) {
        check::HotGateOptions gate_options;
        gate_options.seedBase = seed_base;
        gate_options.traces = traces;
        gate_options.conditionals = branches;
        check::GateReport report = check::runHotGates(gate_options);
        std::fputs(check::formatGateReport("hot gates", report).c_str(),
                   stdout);
        return report.ok() ? 0 : 1;
    }

    if (!inject.empty())
        return runInjected(inject, options, repro_dir);

    std::vector<check::CheckPair> pairs;
    for (check::CheckPair &pair : check::defaultCheckPairs()) {
        if (pairs_filter.empty() ||
            pair.name.find(pairs_filter) != std::string::npos)
            pairs.push_back(std::move(pair));
    }
    check::OraclePhases oracle = check::oraclePhases();
    if (std::string(kMinePairs).find(pairs_filter) == std::string::npos)
        oracle.mine = nullptr;
    if (std::string(kRecordPairs).find(pairs_filter) == std::string::npos)
        oracle.record = nullptr;
    if (std::string(kSelectPairs).find(pairs_filter) == std::string::npos)
        oracle.select = nullptr;
    const bool any_oracle = oracle.mine || oracle.record || oracle.select;
    fatalIf(pairs.empty() && !any_oracle,
            "no check pairs match filter '" + pairs_filter + "'");

    check::SuiteReport report;
    if (!pairs.empty())
        report = check::runCheckSuite(options, pairs);
    if (any_oracle) {
        // The oracle's phases against their references, on their own
        // fuzzed traces.
        check::SuiteReport diffs = check::runOracleSuite(options, oracle);
        report.tracesRun += diffs.tracesRun;
        report.comparisons += diffs.comparisons;
        for (check::SuiteFailure &failure : diffs.failures)
            report.failures.push_back(std::move(failure));
    }
    std::fputs(check::formatReport(report).c_str(), stdout);
    if (!repro_dir.empty()) {
        for (const check::SuiteFailure &failure : report.failures)
            dumpReproducer(repro_dir, failure);
    }

    obs::finishRun(obs::runInfo("copra_check", argc, argv,
                                options.seedBase, false),
                   metrics_out, metrics_summary);
    return report.ok() ? 0 : 1;
}
