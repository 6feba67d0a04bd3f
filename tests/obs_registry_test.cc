/**
 * @file
 * The observability registry under concurrency: counter sums must be
 * exact across racing threads, histogram merging must be associative
 * and commutative (the determinism argument of DESIGN.md §11), and the
 * RAII phase timer must feed both its histograms when telemetry is on
 * and record nothing when it is off.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/instruments.hpp"
#include "obs/registry.hpp"

namespace copra::obs {
namespace {

class ObsRegistryTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Registry::instance().reset();
        setEnabled(true);
    }

    void
    TearDown() override
    {
        setEnabled(false);
        Registry::instance().reset();
    }
};

uint64_t
scalarOf(InstrumentId id)
{
    Snapshot snap = Registry::instance().snapshot();
    return snap.values.at(id).scalar;
}

TEST_F(ObsRegistryTest, CatalogAndIdsAgree)
{
    const std::vector<InstrumentDesc> &catalog = instrumentCatalog();
    ASSERT_FALSE(catalog.empty());
    EXPECT_STREQ(catalog[ids().simRunBranches].key,
                 "sim.run.branches");
    EXPECT_STREQ(catalog[ids().poolTaskQueued].key, "pool.task.queued");
    EXPECT_STREQ(catalog[ids().checkDiffMismatches].key,
                 "check.diff.mismatches");
    // Keys are unique — a duplicate would make two ids share a row.
    std::set<std::string> keys;
    for (const InstrumentDesc &desc : catalog)
        EXPECT_TRUE(keys.insert(desc.key).second)
            << "duplicate instrument key " << desc.key;
}

TEST_F(ObsRegistryTest, DisabledRecordingIsDropped)
{
    setEnabled(false);
    count(ids().simRunBranches, 1000);
    observe(ids().benchSuiteWallSeconds, 1.0);
    setEnabled(true);
    EXPECT_EQ(scalarOf(ids().simRunBranches), 0u);
}

TEST_F(ObsRegistryTest, ConcurrentCountersSumExactly)
{
    constexpr int kThreads = 8;
    constexpr uint64_t kPerThread = 20000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([] {
            for (uint64_t i = 0; i < kPerThread; ++i)
                count(ids().simRunBranches);
            // This thread's sink merges into retired totals here.
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(scalarOf(ids().simRunBranches), kThreads * kPerThread);
}

TEST_F(ObsRegistryTest, ConcurrentGaugeTakesMax)
{
    constexpr int kThreads = 6;
    std::vector<std::thread> threads;
    for (int t = 1; t <= kThreads; ++t) {
        threads.emplace_back([t] {
            gaugeMax(ids().poolQueueDepthHighWater,
                     static_cast<uint64_t>(t * 10));
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(scalarOf(ids().poolQueueDepthHighWater), 60u);
}

TEST_F(ObsRegistryTest, SnapshotSeesLiveSinks)
{
    // No thread exit before the snapshot: values must still be folded.
    count(ids().traceCacheHit, 3);
    Snapshot snap = Registry::instance().snapshot();
    EXPECT_EQ(snap.values.at(ids().traceCacheHit).scalar, 3u);
    Registry::instance().retireCurrentThread();
    EXPECT_EQ(scalarOf(ids().traceCacheHit), 3u);
}

TEST_F(ObsRegistryTest, HistogramMergeIsAssociativeAndCommutative)
{
    InstrumentDesc desc;
    desc.key = "test.hist";
    desc.kind = Kind::Histogram;
    desc.unit = "units";
    desc.description = "test";
    desc.module = "tests";
    desc.lo = 0.0;
    desc.hi = 10.0;
    desc.bins = 10;

    HistogramValue a(desc), b(desc), c(desc);
    for (double v : {0.5, 1.5, 9.5})
        a.observe(v);
    for (double v : {2.5, 3.5})
        b.observe(v);
    c.observe(7.0);

    // (a + b) + c
    HistogramValue left(desc);
    left.merge(a);
    left.merge(b);
    left.merge(c);
    // c + (b + a) — different order and grouping.
    HistogramValue bc(desc);
    bc.merge(c);
    bc.merge(b);
    HistogramValue right(desc);
    right.merge(bc);
    right.merge(a);

    EXPECT_EQ(left.count, right.count);
    EXPECT_DOUBLE_EQ(left.sum, right.sum);
    EXPECT_DOUBLE_EQ(left.min, right.min);
    EXPECT_DOUBLE_EQ(left.max, right.max);
    EXPECT_EQ(left.count, 6u);
    EXPECT_DOUBLE_EQ(left.min, 0.5);
    EXPECT_DOUBLE_EQ(left.max, 9.5);
}

TEST_F(ObsRegistryTest, HistogramObserveTracksExtremes)
{
    observe(ids().benchSuiteWallSeconds, 2.0);
    observe(ids().benchSuiteWallSeconds, 0.25);
    observe(ids().benchSuiteWallSeconds, 1.0);
    Snapshot snap = Registry::instance().snapshot();
    const InstrumentValue &v =
        snap.values.at(ids().benchSuiteWallSeconds);
    EXPECT_EQ(v.count, 3u);
    EXPECT_DOUBLE_EQ(v.sum, 3.25);
    EXPECT_DOUBLE_EQ(v.min, 0.25);
    EXPECT_DOUBLE_EQ(v.max, 2.0);
}

TEST_F(ObsRegistryTest, PhaseTimerFeedsWallAndCpuHistograms)
{
    {
        PhaseTimer timer(ids().simPhaseTraceSeconds,
                         ids().simPhaseTraceCpuSeconds);
        // A little real work so the elapsed time is non-negative and
        // the CPU clock advances measurably on most schedulers.
        volatile uint64_t x = 0;
        for (int i = 0; i < 100000; ++i)
            x = x + static_cast<uint64_t>(i);
    }
    Snapshot snap = Registry::instance().snapshot();
    EXPECT_EQ(snap.values.at(ids().simPhaseTraceSeconds).count, 1u);
    EXPECT_EQ(snap.values.at(ids().simPhaseTraceCpuSeconds).count, 1u);
    EXPECT_GE(snap.values.at(ids().simPhaseTraceSeconds).sum, 0.0);
    EXPECT_GE(snap.values.at(ids().simPhaseTraceCpuSeconds).sum, 0.0);
}

TEST_F(ObsRegistryTest, PhaseTimerRecordsNothingWhenTelemetryDisabled)
{
    setEnabled(false);
    {
        PhaseTimer timer(ids().simPhaseTraceSeconds,
                         ids().simPhaseTraceCpuSeconds);
        volatile uint64_t x = 0;
        for (int i = 0; i < 100000; ++i)
            x = x + static_cast<uint64_t>(i);
    }
    // A timer that outlives a mid-phase enable must not record either:
    // it never read its start clocks.
    {
        PhaseTimer timer(ids().simPhaseTraceSeconds,
                         ids().simPhaseTraceCpuSeconds);
        setEnabled(true);
    }
    Snapshot snap = Registry::instance().snapshot();
    EXPECT_EQ(snap.values.at(ids().simPhaseTraceSeconds).count, 0u);
    EXPECT_EQ(snap.values.at(ids().simPhaseTraceCpuSeconds).count, 0u);
}

TEST_F(ObsRegistryTest, ResetZeroesEverything)
{
    count(ids().simRunBranches, 5);
    observe(ids().benchSuiteWallSeconds, 1.0);
    Registry::instance().reset();
    Snapshot snap = Registry::instance().snapshot();
    EXPECT_EQ(snap.values.at(ids().simRunBranches).scalar, 0u);
    EXPECT_EQ(snap.values.at(ids().benchSuiteWallSeconds).count, 0u);
}

} // namespace
} // namespace copra::obs
