/**
 * @file
 * Shared plumbing for the bench binaries: common CLI options, the
 * standard header each harness prints, the parallel suite fan-out, and
 * wall-clock timing instrumentation. Every bench regenerates one of the
 * paper's tables or figures over the synthetic benchmark suite and
 * prints the paper's published values alongside for comparison.
 *
 * Parallelism: runSuite() runs a bench's workload roster — the paper's
 * 8 benchmarks by default, or an explicit name list (the figure benches
 * pass workload::workloadSuiteNames() to include the frontier families)
 * — concurrently on the global thread pool (size --threads /
 * COPRA_THREADS), collecting rows in suite order so the printed table
 * is byte-identical for every thread count. Traces are served from the
 * on-disk cache (.copra-cache/ or $COPRA_CACHE_DIR) unless
 * --no-trace-cache is given.
 *
 * Timing: the fan-out harnesses print a "timing=" line to stderr with
 * the fan-out's own wall clock, pool size and branch throughput. The
 * per-phase split (trace, predictors, oracle) lives only in the run
 * manifest (--metrics-out) and the --metrics-summary table, which every
 * harness writes through finish() (docs/OBSERVABILITY.md).
 */

#pragma once

#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <numeric>
#include <string>
#include <type_traits>
#include <vector>

#include "core/experiments.hpp"
#include "obs/instruments.hpp"
#include "obs/manifest.hpp"
#include "obs/registry.hpp"
#include "trace/trace_cache.hpp"
#include "util/cli.hpp"
#include "util/env.hpp"
#include "util/thread_pool.hpp"
#include "workload/profiles.hpp"

namespace copra::bench {

/** CLI options shared by all table/figure harnesses. */
struct BenchOptions
{
    core::ExperimentConfig config;
    bool csv = false;
    uint64_t threads = 0;     //!< worker threads (0 = auto)
    bool noTraceCache = false;
    //! run-manifest path; "" disables (docs/OBSERVABILITY.md)
    std::string metricsOut = util::envString("COPRA_METRICS_OUT", "");
    bool metricsSummary = false; //!< print the instrument table (stderr)
    int argc = 0;                //!< the command line, for the manifest
    char **argv = nullptr;

    /**
     * Parse argv; returns false if the program should exit (e.g.
     * --help). @p extra lets a harness register additional options.
     * On success, sizes the global thread pool and enables the trace
     * cache (unless --no-trace-cache).
     */
    bool
    parse(int argc, char **argv, const std::string &description,
          const std::function<void(OptionParser &)> &extra = {})
    {
        OptionParser options(description);
        options.addUint("branches", &config.branches,
                        "dynamic conditional branches per benchmark");
        options.addUint("seed", &config.seed,
                        "workload seed (0 = canonical)");
        options.addUint("mine", &config.mineConditionals,
                        "branches used for candidate mining (0 = all)");
        options.addFlag("csv", &csv, "emit CSV instead of aligned text");
        options.addUint("threads", &threads,
                        "worker threads (0 = COPRA_THREADS or hardware)",
                        UINT_MAX);
        options.addFlag("no-trace-cache", &noTraceCache,
                        "regenerate traces instead of using "
                        ".copra-cache/ ($COPRA_CACHE_DIR)");
        options.addString("metrics-out", &metricsOut,
                          "write a run-manifest JSON here "
                          "($COPRA_METRICS_OUT; empty = off)");
        options.addFlag("metrics-summary", &metricsSummary,
                        "print non-zero telemetry instruments to stderr");
        uint64_t depth = config.historyDepth;
        uint64_t pool = config.candidatePool;
        options.addUint("depth", &depth, "history window depth n",
                        UINT_MAX);
        options.addUint("pool", &pool, "oracle candidate pool size K",
                        UINT_MAX);
        if (extra)
            extra(options);
        if (!options.parse(argc, argv))
            return false;
        config.historyDepth = static_cast<unsigned>(depth);
        config.candidatePool = static_cast<unsigned>(pool);

        this->argc = argc;
        this->argv = argv;

        setGlobalPoolThreads(static_cast<unsigned>(threads));
        trace::setTraceCacheEnabled(!noTraceCache);
        // Telemetry before any simulation work, so every instrument
        // sees the whole run; recording stays off unless requested.
        obs::setEnabled(!metricsOut.empty() || metricsSummary);
        return true;
    }
};

/** Print the standard harness banner. */
inline void
banner(const char *artifact, const BenchOptions &opts)
{
    std::printf("== %s ==\n", artifact);
    std::printf("synthetic SPECint95-like suite, %llu branches/benchmark, "
                "seed %llu (see DESIGN.md for the substitution rationale)\n\n",
                static_cast<unsigned long long>(opts.config.branches),
                static_cast<unsigned long long>(opts.config.seed));
}

/** The fan-out's own measurements of one harness run. */
struct SuiteTiming
{
    double wallSeconds = 0.0;     //!< end-to-end fan-out wall clock
    uint64_t dynamicBranches = 0; //!< conditional branches simulated
};

/**
 * Run @p producer over @p names concurrently and return the produced
 * rows in that order (deterministic regardless of thread count or
 * scheduling: each task owns its BenchmarkExperiment and writes only
 * its own slot). Names must be suite workloads
 * (workload::makeBenchmarkTrace dispatches paper and frontier alike).
 *
 * @param timing Optional sink for the wall clock and branch count.
 */
template <typename Producer>
auto
runSuite(const BenchOptions &opts, SuiteTiming *timing,
         const std::vector<std::string> &names, Producer &&producer)
    -> std::vector<std::decay_t<
        std::invoke_result_t<Producer &, core::BenchmarkExperiment &>>>
{
    using Row = std::decay_t<
        std::invoke_result_t<Producer &, core::BenchmarkExperiment &>>;
    std::vector<Row> rows(names.size());
    std::vector<uint64_t> branches(names.size());

    auto start = std::chrono::steady_clock::now();
    parallelFor(globalPool(), names.size(), [&](size_t i) {
        core::BenchmarkExperiment experiment(names[i], opts.config);
        rows[i] = producer(experiment);
        branches[i] = experiment.trace().conditionalCount();
    });
    if (timing) {
        timing->wallSeconds = std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start).count();
        timing->dynamicBranches =
            std::accumulate(branches.begin(), branches.end(), uint64_t(0));
    }
    return rows;
}

/** runSuite over the paper's eight benchmarks (the tables' roster). */
template <typename Producer>
auto
runSuite(const BenchOptions &opts, SuiteTiming *timing,
         Producer &&producer)
{
    return runSuite(opts, timing, workload::benchmarkNames(),
                    std::forward<Producer>(producer));
}

/**
 * End a harness run: write the run manifest (--metrics-out) and/or
 * print the instrument table to stderr (--metrics-summary). Every
 * harness ends here, directly or through reportTiming(); a no-op
 * unless telemetry was requested.
 */
inline void
finish(const char *artifact, const BenchOptions &opts)
{
    obs::gaugeMax(obs::ids().poolWorkerCount, globalPool().size());
    obs::finishRun(obs::runInfo(artifact, opts.argc, opts.argv,
                                opts.config.seed, true),
                   opts.metricsOut, opts.metricsSummary);
}

/**
 * Print the timing= line for a runSuite() harness, then finish() the
 * run. Call after the table. The line goes to stderr so stdout (the
 * table) stays byte-identical across thread counts and machines.
 */
inline void
reportTiming(const char *artifact, const BenchOptions &opts,
             const SuiteTiming &timing)
{
    double branches_per_sec = timing.wallSeconds > 0
        ? static_cast<double>(timing.dynamicBranches) / timing.wallSeconds
        : 0.0;
    std::fprintf(stderr,
                 "timing= total=%.3fs threads=%u branches=%llu "
                 "branches/sec=%.0f\n",
                 timing.wallSeconds, globalPool().size(),
                 static_cast<unsigned long long>(timing.dynamicBranches),
                 branches_per_sec);
    obs::observe(obs::ids().benchSuiteWallSeconds, timing.wallSeconds);
    finish(artifact, opts);
}

} // namespace copra::bench

