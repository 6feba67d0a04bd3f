/**
 * @file
 * The four copra_bench workloads, composed only from the layers' public
 * entry points (see benchmark/README.md, "Pinned API surface"). Each
 * workload has a set-up step that makes the eleven suite traces ready
 * and a job that does one iteration's work on one trace; the driver
 * fans the jobs of an iteration across the global pool.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spans.hpp"
#include "trace/trace.hpp"
#include "trace/trace_cache.hpp"

namespace copra::bench {

/** Input size and set-up repetitions of one run. */
struct Budget
{
    uint64_t branches = 0;  //!< conditional branches per suite trace
    uint64_t mine = 0;      //!< oracle candidate-mining prefix
    unsigned setupReps = 0; //!< timed set-up repetitions
};

enum class WorkloadKind : uint8_t
{
    TwoLevel,
    Oracle,
    Modern,
    ColdCharacterize,
};

/** A named workload with its full and smoke budgets. */
struct WorkloadInfo
{
    const char *name;
    WorkloadKind kind;
    Budget full;
    Budget smoke;
    /**
     * Nominal seconds per full iteration, a constant: a run of S measuring
     * seconds times S / nominal iterations however fast the code is, so
     * two commits always reduce the same number of samples.
     */
    double nominalIterationSeconds;
};

/** Timed iterations of a full run with @p seconds of measuring time. */
size_t timedIterations(const WorkloadInfo &w, double seconds);

/** All workloads, in run order. */
const std::vector<WorkloadInfo> &workloads();

/** Workload by name, or nullptr. */
const WorkloadInfo *findWorkload(const std::string &name);

/** What one job produced: a result digest and its paper-gap terms. */
struct JobResult
{
    uint64_t digest = 0;
    double gapSum = 0.0; //!< sum of |simulated - published| accuracy, pp
    unsigned gapTerms = 0;
};

/** Everything set-up and jobs read; fixed for the whole run. */
struct RunContext
{
    const WorkloadInfo *workload = nullptr;
    Budget budget;
    uint64_t seed = 0;
    std::vector<std::string> names; //!< the suite, one job per trace
    trace::TraceCache warmCache;    //!< read by the warm workloads
    trace::TraceCache coldCache;    //!< written and read by cold_characterize

    /** Traces made ready by the last set-up rep (warm workloads). */
    std::vector<trace::Trace> resident;

    trace::TraceCacheKey key(size_t i) const
    {
        return {names[i], budget.branches, seed};
    }
};

/**
 * Untimed warm-up: store every warm workload's traces for @p seed that
 * the warm cache lacks, and delete entries of other seeds so the cache
 * stays one seed's size.
 */
void warmCache(const RunContext &ctx);

/**
 * One timed set-up repetition: for the warm workloads, TraceCache::load
 * of all traces into ctx.resident; for cold_characterize, generate and
 * store every trace into the emptied cold cache. With @p verify, the
 * cold rep also loads each stored trace back and checks it against the
 * generated one (after the timed part). Throws on any failure.
 *
 * @return seconds spent in the timed part
 */
double setupRep(RunContext &ctx, bool verify, SpanBuffer *spans);

/** One iteration's work on suite trace @p index; throws on failure. */
JobResult runJob(const RunContext &ctx, size_t index, SpanBuffer *spans);

/**
 * The oracle's mining phase on its own, once per trace, so the traced
 * run can split the oracle's self time into mine and record+select.
 */
void mineOnly(const RunContext &ctx, size_t index, SpanBuffer *spans);

} // namespace copra::bench
