/**
 * @file
 * The observability registry: a process-wide catalog of typed telemetry
 * instruments, one shared slot per instrument, so instrumenting the
 * parallel engine never serializes it and never perturbs its output.
 *
 * Three instrument kinds cover every copra telemetry need:
 *
 *  - Counter: a monotonic uint64 sum (branches simulated, cache hits).
 *  - Gauge: a high-water maximum (queue depth, worker count).
 *  - Histogram: count, sum, min and max over doubles (phase latencies,
 *    entry sizes).
 *
 * Every instrument is registered up front — at Registry construction,
 * from the static catalog in instruments.cc — under a namespaced string
 * key ("sim.run.branches") together with its unit, a one-line
 * description, and the emitting module. The registry is therefore
 * self-documenting: `copra_report --doc-registry` walks it to
 * regenerate docs/METRICS.md, and a ctest gate fails when that file
 * drifts from the code.
 *
 * Concurrency and determinism (DESIGN.md §11): each counter and gauge
 * is one cache-line-padded atomic, updated with a relaxed fetch_add
 * (counter) or a compare-exchange max (gauge) — no lock, no
 * allocation, so instrumented hot paths still pass the hot gates.
 * Histograms are observed once per phase or pool task and keep their
 * summary under the registry's one mutex. Because add and max commute,
 * counter and gauge values are independent of thread count and
 * scheduling order wherever the underlying event counts are
 * (timing-valued instruments vary run to run and are labeled as such
 * in the manifest schema). Nothing here ever writes to stdout, so
 * instrumented benches stay byte-identical to uninstrumented ones.
 *
 * Zero-overhead-when-disabled: the free helpers (count, gaugeMax,
 * observe) test one relaxed atomic bool and return. Enabling is one-way
 * per run (the bench CLIs flip it before any simulation starts).
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace copra::obs {

/** Instrument value/merge semantics. */
enum class Kind : uint8_t
{
    Counter = 0,  //!< monotonic sum
    Gauge = 1,    //!< high-water maximum
    Histogram = 2 //!< sample count/sum/min/max
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
};

/** Aggregated state of one histogram instrument. */
struct HistogramValue
{
    uint64_t count = 0; //!< samples observed
    double sum = 0.0;   //!< sum of observed values
    double min = 0.0;   //!< smallest observed value (0 when count == 0)
    double max = 0.0;   //!< largest observed value (0 when count == 0)

    /** Record one sample. */
    void observe(double value);
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

    /** Add @p delta to counter @p id (one relaxed fetch_add). */
    void add(InstrumentId id, uint64_t delta);

    /** Raise gauge @p id to at least @p value (compare-exchange max). */
    void maxAt(InstrumentId id, uint64_t value);

    /** Record @p value into histogram @p id (takes the mutex). */
    void observe(InstrumentId id, double value);

    /**
     * Copy every instrument's value. Safe to call while other threads
     * keep recording; values are at least as fresh as every event that
     * happened-before the call.
     */
    Snapshot snapshot();

    /** Zero every instrument. Test helper; production code never
     * resets telemetry. */
    void reset();

  private:
    Registry();

    /** A counter's sum or a gauge's high-water, alone on its cache
     * line so threads bumping different instruments never share one. */
    struct alignas(64) Slot
    {
        std::atomic<uint64_t> value{0};
    };

    std::vector<InstrumentDesc> catalog_;
    std::vector<Slot> slots_; //!< one per catalog entry

    util::Mutex mutex_;
    std::vector<HistogramValue> hists_ COPRA_GUARDED_BY(mutex_);
};

/** True when telemetry is recording (one relaxed atomic load). */
bool enabled();

/**
 * Turn telemetry on or off. Enabling also installs the util-side pool
 * hooks (util/metrics_hooks.hpp) so thread-pool events start flowing.
 */
void setEnabled(bool on);

/** Add @p delta to counter @p id; no-op when disabled. */
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
