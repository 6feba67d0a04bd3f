/**
 * @file
 * The observability registry: a process-wide catalog of typed telemetry
 * instruments, with per-thread aggregation so instrumenting the
 * parallel engine never serializes it and never perturbs its output.
 *
 * Three instrument kinds cover every copra telemetry need:
 *
 *  - Counter: a monotonic uint64 sum (branches simulated, cache hits).
 *  - Gauge: a high-water maximum (queue depth, worker count).
 *  - Histogram: a fixed-bin distribution over doubles with count, sum,
 *    min and max (phase latencies, entry sizes), reusing
 *    copra::Histogram for the bins.
 *
 * Every instrument is registered up front — at Registry construction,
 * from the static catalog in instruments.cc — under a namespaced string
 * key ("sim.run.branches") together with its unit, a one-line
 * description, and the emitting module. The registry is therefore
 * self-documenting: `copra_report --doc-registry` walks it to
 * regenerate docs/METRICS.md, and a ctest gate fails when that file
 * drifts from the code.
 *
 * Concurrency and determinism (DESIGN.md §11): each thread owns a
 * ThreadSink; hot-path updates touch only the caller's sink under its
 * own (uncontended) mutex. Sinks merge into the registry's retired
 * totals when their thread exits, and snapshot() folds retired totals
 * with every live sink. Because counters merge by addition, gauges by
 * max, and histograms by bin-wise addition, the merge is associative
 * and commutative — so aggregate values are independent of thread
 * count and scheduling order wherever the underlying event counts are
 * (timing-valued instruments vary run to run and are labeled as such
 * in the manifest schema). Nothing here ever writes to stdout, so
 * instrumented benches stay byte-identical to uninstrumented ones.
 *
 * Zero-overhead-when-disabled: the free helpers (count, gaugeMax,
 * observe) test one relaxed atomic bool and return; no sink is ever
 * created, no lock taken. Enabling is one-way per run (the bench CLIs
 * flip it before any simulation starts).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/histogram.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace copra::obs {

/** Instrument value/merge semantics. */
enum class Kind : uint8_t
{
    Counter = 0,  //!< monotonic sum
    Gauge = 1,    //!< high-water maximum
    Histogram = 2 //!< fixed-bin distribution with count/sum/min/max
};

/** Display name of an instrument kind ("counter", "gauge", ...). */
const char *kindName(Kind kind);

/** Dense index of an instrument in the registry catalog. */
using InstrumentId = uint32_t;

/** Registration-time identity of one instrument. */
struct InstrumentDesc
{
    const char *key;         //!< namespaced name, e.g. "trace.cache.hit"
    Kind kind;               //!< value semantics
    const char *unit;        //!< what one count means, e.g. "branches"
    const char *description; //!< one-line doc, surfaced in METRICS.md
    const char *module;      //!< emitting module, e.g. "sim" or "util"
    double lo = 0.0;         //!< histogram interval lower bound
    double hi = 1.0;         //!< histogram interval upper bound
    unsigned bins = 1;       //!< histogram bin count
};

/** Aggregated state of one histogram instrument. */
struct HistogramValue
{
    uint64_t count = 0; //!< samples observed
    double sum = 0.0;   //!< sum of observed values
    double min = 0.0;   //!< smallest observed value (0 when count == 0)
    double max = 0.0;   //!< largest observed value (0 when count == 0)
    copra::Histogram bins;

    explicit HistogramValue(const InstrumentDesc &desc)
        : bins(desc.lo, desc.hi, desc.bins)
    {
    }

    /** Record one sample. */
    void observe(double value);

    /** Bin-wise associative fold of @p other into this value. */
    void merge(const HistogramValue &other);
};

/** One instrument's aggregate at snapshot time. */
struct InstrumentValue
{
    InstrumentId id = 0;
    uint64_t scalar = 0;  //!< counter sum or gauge high-water
    uint64_t count = 0;   //!< histogram sample count
    double sum = 0.0;     //!< histogram sample sum
    double min = 0.0;     //!< histogram minimum
    double max = 0.0;     //!< histogram maximum
};

/** A consistent copy of every instrument's aggregate. */
struct Snapshot
{
    std::vector<InstrumentValue> values; //!< indexed by InstrumentId
};

class Registry;

/**
 * Thread-owned aggregation buffer. Updates lock only the sink's own
 * mutex (uncontended in steady state — the owning thread is the only
 * writer; snapshot() is the only cross-thread reader).
 */
class ThreadSink
{
  public:
    explicit ThreadSink(const std::vector<InstrumentDesc> &catalog);

    void add(InstrumentId id, uint64_t delta);
    void maxAt(InstrumentId id, uint64_t value);
    void observe(InstrumentId id, double value);

  private:
    friend class Registry;

    util::Mutex mutex_;
    std::vector<uint64_t> scalars_ COPRA_GUARDED_BY(mutex_);
    std::vector<HistogramValue> hists_ COPRA_GUARDED_BY(mutex_);
};

/** The process-wide instrument registry. */
class Registry
{
  public:
    /** The singleton, constructed (and its catalog registered) on
     * first use. */
    static Registry &instance();

    /** Every registered instrument, in catalog (documentation) order. */
    const std::vector<InstrumentDesc> &catalog() const { return catalog_; }

    /** Catalog entry for @p id. */
    const InstrumentDesc &describe(InstrumentId id) const;

    /** Add @p delta to counter @p id on the calling thread's sink. */
    void add(InstrumentId id, uint64_t delta);

    /** Raise gauge @p id to at least @p value. */
    void maxAt(InstrumentId id, uint64_t value);

    /** Record @p value into histogram @p id. */
    void observe(InstrumentId id, double value);

    /**
     * Merge retired totals and every live thread sink into a consistent
     * copy. Safe to call while other threads keep recording; values are
     * at least as fresh as every event that happened-before the call.
     */
    Snapshot snapshot();

    /**
     * Zero every instrument (all live sinks and the retired totals).
     * Test helper; production code never resets telemetry.
     */
    void reset();

    /**
     * Merge and drop the calling thread's sink now instead of at
     * thread exit. The next update from this thread creates a fresh
     * sink. Used by scope-exit points that outlive their data (e.g. a
     * pool about to join its workers).
     */
    void retireCurrentThread();

  private:
    Registry();

    ThreadSink *localSink();
    void retire(ThreadSink *sink);

    std::vector<InstrumentDesc> catalog_;

    util::Mutex mutex_;
    std::vector<ThreadSink *> sinks_ COPRA_GUARDED_BY(mutex_);
    // Totals of sinks whose threads have exited, folded in at
    // retirement ("merge at scope exit"); same shape as a sink.
    std::vector<uint64_t> retiredScalars_ COPRA_GUARDED_BY(mutex_);
    std::vector<HistogramValue> retiredHists_ COPRA_GUARDED_BY(mutex_);
};

/** True when telemetry is recording (one relaxed atomic load). */
bool enabled();

/**
 * Turn telemetry on or off. Enabling also installs the util-side pool
 * hooks (util/metrics_hooks.hpp) so thread-pool events start flowing.
 */
void setEnabled(bool on);

/** Add @p delta to counter @p id; no-op (and no sink) when disabled. */
inline void count(InstrumentId id, uint64_t delta = 1);

/** Raise gauge @p id to at least @p value; no-op when disabled. */
inline void gaugeMax(InstrumentId id, uint64_t value);

/** Record @p value into histogram @p id; no-op when disabled. */
inline void observe(InstrumentId id, double value);

// --- implementation of the inline fast paths -------------------------

namespace detail {
bool enabledRelaxed();
} // namespace detail

inline void
count(InstrumentId id, uint64_t delta)
{
    if (detail::enabledRelaxed())
        Registry::instance().add(id, delta);
}

inline void
gaugeMax(InstrumentId id, uint64_t value)
{
    if (detail::enabledRelaxed())
        Registry::instance().maxAt(id, value);
}

inline void
observe(InstrumentId id, double value)
{
    if (detail::enabledRelaxed())
        Registry::instance().observe(id, value);
}

/** CPU seconds the calling thread has consumed (0 if unavailable). */
double threadCpuSeconds();

/**
 * RAII phase timer: on destruction, records elapsed wall seconds into
 * histogram @p wall_id and elapsed thread-CPU seconds into @p cpu_id.
 * When telemetry is disabled at construction the clocks are never read
 * and nothing is recorded.
 */
class PhaseTimer
{
  public:
    /**
     * @param wall_id Wall-seconds histogram instrument.
     * @param cpu_id Thread-CPU-seconds histogram instrument.
     */
    PhaseTimer(InstrumentId wall_id, InstrumentId cpu_id);
    ~PhaseTimer();

    PhaseTimer(const PhaseTimer &) = delete;
    PhaseTimer &operator=(const PhaseTimer &) = delete;

  private:
    InstrumentId wallId_;
    InstrumentId cpuId_;
    bool armed_;
    double startWall_ = 0.0; //!< seconds since an arbitrary epoch
    double startCpu_ = 0.0;  //!< thread CPU seconds
};

} // namespace copra::obs
