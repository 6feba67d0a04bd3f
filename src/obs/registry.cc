#include "obs/registry.hpp"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>

#include "obs/instruments.hpp"
#include "util/logging.hpp"
#include "util/metrics_hooks.hpp"

namespace copra::obs {

namespace {

// Telemetry on/off switch. Flipped once by CLI parsing before any
// simulation work; the gated counters never feed back into results, so
// relaxed ordering is sufficient.
// copra-lint: sanctioned-global(process-wide telemetry on/off switch)
std::atomic<bool> g_enabled{false};

double
nowWallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

double
threadCpuSeconds()
{
    timespec ts{};
    if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0)
        return 0.0;
    return static_cast<double>(ts.tv_sec) +
        static_cast<double>(ts.tv_nsec) * 1e-9;
}

const char *
kindName(Kind kind)
{
    switch (kind) {
    case Kind::Counter:
        return "counter";
    case Kind::Gauge:
        return "gauge";
    case Kind::Histogram:
        return "histogram";
    }
    return "?";
}

void
HistogramValue::observe(double value)
{
    if (count == 0) {
        min = value;
        max = value;
    } else {
        min = std::min(min, value);
        max = std::max(max, value);
    }
    ++count;
    sum += value;
    bins.add(value);
}

void
HistogramValue::merge(const HistogramValue &other)
{
    if (other.count == 0)
        return;
    if (count == 0) {
        min = other.min;
        max = other.max;
    } else {
        min = std::min(min, other.min);
        max = std::max(max, other.max);
    }
    count += other.count;
    sum += other.sum;
    bins.merge(other.bins);
}

ThreadSink::ThreadSink(const std::vector<InstrumentDesc> &catalog)
{
    util::MutexLock lock(mutex_);
    scalars_.assign(catalog.size(), 0);
    hists_.reserve(catalog.size());
    for (const InstrumentDesc &desc : catalog)
        hists_.emplace_back(desc);
}

void
ThreadSink::add(InstrumentId id, uint64_t delta)
{
    util::MutexLock lock(mutex_);
    scalars_[id] += delta;
}

void
ThreadSink::maxAt(InstrumentId id, uint64_t value)
{
    util::MutexLock lock(mutex_);
    scalars_[id] = std::max(scalars_[id], value);
}

void
ThreadSink::observe(InstrumentId id, double value)
{
    util::MutexLock lock(mutex_);
    hists_[id].observe(value);
}

namespace {

/**
 * Owns the calling thread's sink pointer; the destructor is the "scope
 * exit" of the per-thread-merge design — it folds the sink into the
 * registry's retired totals when the thread goes away.
 */
struct SinkHolder
{
    ThreadSink *sink = nullptr;

    ~SinkHolder();
};

// copra-lint: sanctioned-global(per-thread telemetry sink pointer; merged into the registry at thread exit)
thread_local SinkHolder t_sink;

} // namespace

Registry &
Registry::instance()
{
    // Leaked deliberately: worker threads (and their SinkHolder
    // destructors) may outlive any static destruction order we could
    // arrange, so the registry must never be torn down.
    // copra-lint: sanctioned-global(the observability registry singleton)
    static Registry *registry = new Registry;
    return *registry;
}

Registry::Registry()
    : catalog_(instrumentCatalog())
{
    util::MutexLock lock(mutex_);
    retiredScalars_.assign(catalog_.size(), 0);
    retiredHists_.reserve(catalog_.size());
    for (const InstrumentDesc &desc : catalog_)
        retiredHists_.emplace_back(desc);
}

const InstrumentDesc &
Registry::describe(InstrumentId id) const
{
    panicIf(id >= catalog_.size(), "obs: instrument id out of range");
    return catalog_[id];
}

ThreadSink *
Registry::localSink()
{
    if (t_sink.sink == nullptr) {
        auto *sink = new ThreadSink(catalog_);
        {
            util::MutexLock lock(mutex_);
            sinks_.push_back(sink);
        }
        t_sink.sink = sink;
    }
    return t_sink.sink;
}

void
Registry::retire(ThreadSink *sink)
{
    util::MutexLock lock(mutex_);
    {
        util::MutexLock sinkLock(sink->mutex_);
        for (size_t i = 0; i < retiredScalars_.size(); ++i) {
            if (catalog_[i].kind == Kind::Gauge)
                retiredScalars_[i] =
                    std::max(retiredScalars_[i], sink->scalars_[i]);
            else
                retiredScalars_[i] += sink->scalars_[i];
            retiredHists_[i].merge(sink->hists_[i]);
        }
    }
    sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), sink),
                 sinks_.end());
    delete sink;
}

namespace {

SinkHolder::~SinkHolder()
{
    // retireCurrentThread() nulls t_sink.sink, i.e. this->sink.
    if (sink != nullptr)
        Registry::instance().retireCurrentThread();
}

} // namespace

void
Registry::retireCurrentThread()
{
    if (t_sink.sink != nullptr) {
        retire(t_sink.sink);
        t_sink.sink = nullptr;
    }
}

void
Registry::add(InstrumentId id, uint64_t delta)
{
    panicIf(describe(id).kind != Kind::Counter,
            "obs: count() on a non-counter instrument");
    localSink()->add(id, delta);
}

void
Registry::maxAt(InstrumentId id, uint64_t value)
{
    panicIf(describe(id).kind != Kind::Gauge,
            "obs: gaugeMax() on a non-gauge instrument");
    localSink()->maxAt(id, value);
}

void
Registry::observe(InstrumentId id, double value)
{
    panicIf(describe(id).kind != Kind::Histogram,
            "obs: observe() on a non-histogram instrument");
    localSink()->observe(id, value);
}

Snapshot
Registry::snapshot()
{
    Snapshot snap;
    snap.values.resize(catalog_.size());
    for (size_t i = 0; i < catalog_.size(); ++i)
        snap.values[i].id = static_cast<InstrumentId>(i);

    util::MutexLock lock(mutex_);
    std::vector<uint64_t> scalars = retiredScalars_;
    std::vector<HistogramValue> hists = retiredHists_;
    for (ThreadSink *sink : sinks_) {
        util::MutexLock sinkLock(sink->mutex_);
        for (size_t i = 0; i < catalog_.size(); ++i) {
            if (catalog_[i].kind == Kind::Gauge)
                scalars[i] = std::max(scalars[i], sink->scalars_[i]);
            else
                scalars[i] += sink->scalars_[i];
            hists[i].merge(sink->hists_[i]);
        }
    }
    for (size_t i = 0; i < catalog_.size(); ++i) {
        snap.values[i].scalar = scalars[i];
        snap.values[i].count = hists[i].count;
        snap.values[i].sum = hists[i].sum;
        snap.values[i].min = hists[i].min;
        snap.values[i].max = hists[i].max;
    }
    return snap;
}

void
Registry::reset()
{
    util::MutexLock lock(mutex_);
    std::fill(retiredScalars_.begin(), retiredScalars_.end(), 0);
    for (size_t i = 0; i < retiredHists_.size(); ++i)
        retiredHists_[i] = HistogramValue(catalog_[i]);
    for (ThreadSink *sink : sinks_) {
        util::MutexLock sinkLock(sink->mutex_);
        std::fill(sink->scalars_.begin(), sink->scalars_.end(), 0);
        for (size_t i = 0; i < sink->hists_.size(); ++i)
            sink->hists_[i] = HistogramValue(catalog_[i]);
    }
}

namespace {

/** util-side pool listeners, forwarding into the registry. */
void
onPoolTaskQueued(uint64_t queue_depth)
{
    count(ids().poolTaskQueued);
    gaugeMax(ids().poolQueueDepthHighWater, queue_depth);
}

void
onPoolTaskExecuted(double busy_seconds)
{
    count(ids().poolTaskExecuted);
    count(ids().poolWorkerBusyMicros,
          static_cast<uint64_t>(busy_seconds * 1e6));
    observe(ids().poolTaskSeconds, busy_seconds);
}

// Installed into util/metrics_hooks.hpp on first enable; must outlive
// every pool, hence namespace scope and const.
const util::PoolMetricsHooks kPoolHooks = {
    &onPoolTaskQueued,
    &onPoolTaskExecuted,
};

} // namespace

bool
enabled()
{
    return detail::enabledRelaxed();
}

bool
detail::enabledRelaxed()
{
    return g_enabled.load(std::memory_order_relaxed);
}

void
setEnabled(bool on)
{
    if (on) {
        // Touch the singletons before the flag flips so no hot path
        // ever races instrument registration.
        Registry::instance();
        util::setPoolMetricsHooks(&kPoolHooks);
    } else {
        util::setPoolMetricsHooks(nullptr);
    }
    g_enabled.store(on, std::memory_order_relaxed);
}

PhaseTimer::PhaseTimer(InstrumentId wall_id, InstrumentId cpu_id)
    : wallId_(wall_id), cpuId_(cpu_id), armed_(detail::enabledRelaxed())
{
    if (armed_) {
        startWall_ = nowWallSeconds();
        startCpu_ = threadCpuSeconds();
    }
}

PhaseTimer::~PhaseTimer()
{
    if (!armed_)
        return;
    observe(wallId_, nowWallSeconds() - startWall_);
    observe(cpuId_, threadCpuSeconds() - startCpu_);
}

} // namespace copra::obs
