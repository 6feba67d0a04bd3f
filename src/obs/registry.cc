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
}

Registry &
Registry::instance()
{
    // Leaked deliberately: worker threads may still record while static
    // destruction runs, so the registry must never be torn down.
    // copra-lint: sanctioned-global(the observability registry singleton)
    static Registry *registry = new Registry;
    return *registry;
}

Registry::Registry()
    : catalog_(instrumentCatalog()), slots_(catalog_.size())
{
    util::MutexLock lock(mutex_);
    hists_.resize(catalog_.size());
}

const InstrumentDesc &
Registry::describe(InstrumentId id) const
{
    panicIf(id >= catalog_.size(), "obs: instrument id out of range");
    return catalog_[id];
}

void
Registry::add(InstrumentId id, uint64_t delta)
{
    panicIf(describe(id).kind != Kind::Counter,
            "obs: count() on a non-counter instrument");
    slots_[id].value.fetch_add(delta, std::memory_order_relaxed);
}

void
Registry::maxAt(InstrumentId id, uint64_t value)
{
    panicIf(describe(id).kind != Kind::Gauge,
            "obs: gaugeMax() on a non-gauge instrument");
    std::atomic<uint64_t> &slot = slots_[id].value;
    uint64_t seen = slot.load(std::memory_order_relaxed);
    while (seen < value &&
           !slot.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
}

void
Registry::observe(InstrumentId id, double value)
{
    panicIf(describe(id).kind != Kind::Histogram,
            "obs: observe() on a non-histogram instrument");
    util::MutexLock lock(mutex_);
    hists_[id].observe(value);
}

Snapshot
Registry::snapshot()
{
    Snapshot snap;
    snap.values.resize(catalog_.size());
    util::MutexLock lock(mutex_);
    for (size_t i = 0; i < catalog_.size(); ++i) {
        InstrumentValue &v = snap.values[i];
        v.id = static_cast<InstrumentId>(i);
        v.scalar = slots_[i].value.load(std::memory_order_relaxed);
        v.count = hists_[i].count;
        v.sum = hists_[i].sum;
        v.min = hists_[i].min;
        v.max = hists_[i].max;
    }
    return snap;
}

void
Registry::reset()
{
    for (Slot &slot : slots_)
        slot.value.store(0, std::memory_order_relaxed);
    util::MutexLock lock(mutex_);
    std::fill(hists_.begin(), hists_.end(), HistogramValue{});
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
