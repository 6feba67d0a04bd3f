/**
 * @file
 * copra_report — run-manifest comparison and metrics documentation.
 *
 * Modes:
 *   copra_report diff <before.json> <after.json> [--threshold 0.05]
 *       Print a Markdown regression report comparing two run manifests
 *       (as written by any bench or CLI via --metrics-out).
 *
 *   copra_report --doc-registry
 *       Print docs/METRICS.md regenerated from the live instrument
 *       registry (the metrics_doc_drift ctest gate compares it with the
 *       committed file through tests/doc_drift.sh).
 *
 *   copra_report --summary <manifest.json>
 *       Print a header line, then the non-zero instruments of a
 *       manifest as the same aligned table --metrics-summary prints
 *       (obs::renderSummary).
 *
 *   copra_report perf-gate <current.json> [--baseline <before.json>]
 *                [--max-regress <frac>] [--json]
 *       Compute simulated branches/s from a run manifest
 *       (sim.run.branches over the summed sim.phase.predictor.seconds
 *       wall time), the selective oracle's summed
 *       sim.phase.oracle.{mine,record,select}.cpu_seconds, the PA
 *       classifier's sim.phase.pa_classifier.cpu_seconds and the
 *       fingerprints' sim.phase.characterize.cpu_seconds, whichever
 *       it records (a manifest with none is unusable). With
 *       --baseline, exit non-zero when throughput regressed by more
 *       than --max-regress (default 0.15) — the CI bench-perf hard
 *       gate — and gate each CPU time the same way (baseline
 *       seconds over current seconds below 1 - bound fails); every
 *       quantity the baseline records is gated, and a current
 *       manifest that lacks one fails. With --json, print a small
 *       snapshot object (committed as BENCH_<n>.json to track the
 *       perf trajectory in-repo).
 *
 * Exit status: 0 on success, 1 for a failed gate or an unusable
 * manifest, 2 for a usage error — including a --max-regress or
 * --threshold value that is not a whole number in [0, 1).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/manifest.hpp"
#include "obs/report.hpp"

namespace {

using namespace copra;

int
usage(const char *prog)
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  %s diff <before.json> <after.json> [--threshold <frac>]\n"
        "  %s --doc-registry\n"
        "  %s --summary <manifest.json>\n"
        "  %s perf-gate <current.json> [--baseline <before.json>]\n"
        "     [--max-regress <frac>] [--json]\n",
        prog, prog, prog, prog);
    return 2;
}

/**
 * Parse the value of fraction option @p option into @p out: the whole
 * of @p text must be a number in [0, 1). Anything else ("15%", "abc",
 * "1.5") is a usage error, never a silently different bound.
 */
bool
parseFraction(const char *option, const char *text, double *out)
{
    char *end = nullptr;
    double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || !(value >= 0.0 && value < 1.0)) {
        std::fprintf(stderr,
                     "copra_report: %s wants a fraction in [0, 1), "
                     "got '%s'\n",
                     option, text);
        return false;
    }
    *out = value;
    return true;
}

/**
 * Simulated branch throughput recorded in @p manifest: total dynamic
 * branches fed to predictors over the summed predictor-phase wall
 * time, or 0 when the manifest lacks either instrument (a binary that
 * never ran a predictor simulation has no throughput).
 */
double
branchesPerSecond(const obs::Json &manifest)
{
    double branches = 0.0;
    double seconds = 0.0;
    for (const obs::Json &entry : manifest.at("instruments").items()) {
        const std::string &key = entry.at("key").asString();
        if (key == "sim.run.branches")
            branches = entry.at("value").asNumber();
        else if (key == "sim.phase.predictor.seconds")
            seconds = entry.at("sum").asNumber();
    }
    return seconds > 0.0 && branches > 0.0 ? branches / seconds : 0.0;
}

/** A phase CPU time perf-gate gates: the summed sums of its phases. */
struct CpuQuantity
{
    const char *name;     //!< as printed ("oracle", "PA classifier")
    const char *jsonKey;  //!< field of the --json snapshot
    std::vector<const char *> phases;
};

/**
 * The gated CPU quantities: the selective oracle's mine + record +
 * select (fig4, fig5, fig8, table2), the PA classifier's one pass
 * (fig6, fig8, table3) and the workload fingerprints
 * (copra_characterize).
 */
const std::vector<CpuQuantity> &
cpuQuantities()
{
    static const std::vector<CpuQuantity> quantities = {
        {"oracle", "oracle_cpu_seconds",
         {"sim.phase.oracle.mine.cpu_seconds",
          "sim.phase.oracle.record.cpu_seconds",
          "sim.phase.oracle.select.cpu_seconds"}},
        {"PA classifier", "pa_classifier_cpu_seconds",
         {"sim.phase.pa_classifier.cpu_seconds"}},
        {"characterize", "characterize_cpu_seconds",
         {"sim.phase.characterize.cpu_seconds"}},
    };
    return quantities;
}

/**
 * Summed CPU seconds of @p quantity's phases in @p manifest, or 0 when
 * any phase is missing: manifests of harnesses that never run the
 * oracle or the classifier record zero for it.
 */
double
cpuSeconds(const obs::Json &manifest, const CpuQuantity &quantity)
{
    double seconds = 0.0;
    size_t found = 0;
    for (const obs::Json &entry : manifest.at("instruments").items()) {
        const std::string &key = entry.at("key").asString();
        for (const char *phase : quantity.phases) {
            if (key == phase) {
                seconds += entry.at("sum").asNumber();
                ++found;
            }
        }
    }
    return found == quantity.phases.size() ? seconds : 0.0;
}

int
runPerfGate(int argc, char **argv)
{
    std::string current_path;
    std::string baseline_path;
    double max_regress = 0.15;
    bool as_json = false;
    for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
            baseline_path = argv[++i];
        } else if (std::strcmp(argv[i], "--max-regress") == 0 &&
                   i + 1 < argc) {
            if (!parseFraction("--max-regress", argv[++i], &max_regress))
                return 2;
        } else if (std::strcmp(argv[i], "--json") == 0) {
            as_json = true;
        } else if (current_path.empty()) {
            current_path = argv[i];
        } else {
            return usage(argv[0]);
        }
    }
    if (current_path.empty())
        return usage(argv[0]);

    // A manifest is gated on what it records: predictor throughput
    // and each phase CPU time it carries.
    const std::vector<CpuQuantity> &quantities = cpuQuantities();
    auto recorded = [&](const obs::Json &manifest, double *throughput,
                        std::vector<double> *cpu) {
        *throughput = branchesPerSecond(manifest);
        bool any = *throughput > 0.0;
        for (const CpuQuantity &quantity : quantities) {
            cpu->push_back(cpuSeconds(manifest, quantity));
            any = any || cpu->back() > 0.0;
        }
        return any;
    };
    obs::Json current = obs::loadManifest(current_path);
    double now = 0.0;
    std::vector<double> cpu_now;
    if (!recorded(current, &now, &cpu_now)) {
        throw std::runtime_error(
            "manifest records neither simulated-branch throughput "
            "(sim.run.branches / sim.phase.predictor.seconds) nor a "
            "gated phase CPU time (sim.phase.oracle.{mine,record,select}"
            ".cpu_seconds, sim.phase.pa_classifier.cpu_seconds, "
            "sim.phase.characterize.cpu_seconds): " +
            current_path);
    }
    if (as_json) {
        std::printf("{\n"
                    "  \"tool\": \"%s\",\n"
                    "  \"git_sha\": \"%s\"",
                    current.at("tool").asString().c_str(),
                    current.at("git_sha").asString().c_str());
        if (now > 0.0)
            std::printf(",\n  \"branches_per_second\": %.0f", now);
        for (size_t q = 0; q < quantities.size(); ++q)
            if (cpu_now[q] > 0.0)
                std::printf(",\n  \"%s\": %.3f", quantities[q].jsonKey,
                            cpu_now[q]);
        std::printf("\n}\n");
    } else {
        if (now > 0.0)
            std::printf("current:  %12.0f branches/s (%s)\n", now,
                        current_path.c_str());
        for (size_t q = 0; q < quantities.size(); ++q)
            if (cpu_now[q] > 0.0)
                std::printf("current:  %12.3f s %s CPU (%s)\n", cpu_now[q],
                            quantities[q].name, current_path.c_str());
    }
    if (baseline_path.empty())
        return 0;

    obs::Json baseline = obs::loadManifest(baseline_path);
    double base = 0.0;
    std::vector<double> cpu_base;
    if (!recorded(baseline, &base, &cpu_base)) {
        throw std::runtime_error(
            "baseline records neither simulated-branch throughput nor a "
            "gated phase CPU time: " + baseline_path);
    }
    // Every quantity the baseline records is gated, so a run that
    // stops recording one fails instead of passing on the others.
    if (base > 0.0 && now <= 0.0) {
        throw std::runtime_error(
            "the baseline records simulated-branch throughput and the "
            "current manifest does not: " + current_path);
    }
    for (size_t q = 0; q < quantities.size(); ++q) {
        if (cpu_base[q] > 0.0 && cpu_now[q] <= 0.0) {
            throw std::runtime_error(
                std::string("the baseline records the ") +
                quantities[q].name +
                " phases and the current manifest does not: " +
                current_path);
        }
    }
    int status = 0;
    if (base > 0.0) {
        double ratio = now / base;
        if (!as_json)
            std::printf("baseline: %12.0f branches/s (%s)\n"
                        "ratio:    %.3fx\n",
                        base, baseline_path.c_str(), ratio);
        if (ratio < 1.0 - max_regress) {
            std::fprintf(stderr,
                         "copra_report: throughput regressed %.1f%% "
                         "(limit %.1f%%)\n",
                         (1.0 - ratio) * 100.0, max_regress * 100.0);
            status = 1;
        }
    }
    for (size_t q = 0; q < quantities.size(); ++q) {
        if (cpu_base[q] <= 0.0)
            continue;
        double ratio = cpu_base[q] / cpu_now[q];
        if (!as_json)
            std::printf("%s: %.3f s CPU (baseline %.3f s), "
                        "speed ratio %.3fx\n",
                        quantities[q].name, cpu_now[q], cpu_base[q], ratio);
        if (ratio < 1.0 - max_regress) {
            std::fprintf(stderr,
                         "copra_report: %s CPU time regressed %.1f%% "
                         "(limit %.1f%%)\n",
                         quantities[q].name, (1.0 - ratio) * 100.0,
                         max_regress * 100.0);
            status = 1;
        }
    }
    return status;
}

int
runDiff(int argc, char **argv)
{
    obs::DiffOptions options;
    std::string before_path;
    std::string after_path;
    for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
            if (!parseFraction("--threshold", argv[++i],
                               &options.threshold))
                return 2;
        } else if (before_path.empty()) {
            before_path = argv[i];
        } else if (after_path.empty()) {
            after_path = argv[i];
        } else {
            return usage(argv[0]);
        }
    }
    if (before_path.empty() || after_path.empty())
        return usage(argv[0]);
    // Load in argument order so the error names the first bad file
    // (function-argument evaluation order is unspecified).
    obs::Json before = obs::loadManifest(before_path);
    obs::Json after = obs::loadManifest(after_path);
    std::string report = obs::diffManifests(before, after, options);
    std::fputs(report.c_str(), stdout);
    return 0;
}

int
runDocRegistry(int argc, char **argv)
{
    if (argc != 2)
        return usage(argv[0]);
    std::fputs(obs::renderRegistryDoc().c_str(), stdout);
    return 0;
}

int
runSummary(int argc, char **argv)
{
    if (argc != 3)
        return usage(argv[0]);
    obs::Json manifest = obs::loadManifest(argv[2]);
    std::printf("manifest %s (tool=%s git=%s)\n", argv[2],
                manifest.at("tool").asString().c_str(),
                manifest.at("git_sha").asString().c_str());
    std::fputs(obs::renderSummary(manifest).c_str(), stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(argv[0]);
    try {
        if (std::strcmp(argv[1], "diff") == 0)
            return runDiff(argc, argv);
        if (std::strcmp(argv[1], "--doc-registry") == 0)
            return runDocRegistry(argc, argv);
        if (std::strcmp(argv[1], "--summary") == 0)
            return runSummary(argc, argv);
        if (std::strcmp(argv[1], "perf-gate") == 0)
            return runPerfGate(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "copra_report: %s\n", e.what());
        return 1;
    }
    return usage(argv[0]);
}
