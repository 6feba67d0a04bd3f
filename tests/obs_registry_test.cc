/**
 * @file
 * The observability registry under concurrency: counter sums, gauge
 * maxima and histogram summaries must be exact across racing threads
 * (the determinism argument of DESIGN.md §11), and the RAII phase timer
 * must feed both its histograms when telemetry is on and record
 * nothing when it is off.
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

TEST_F(ObsRegistryTest, SnapshotIsLive)
{
    // Each snapshot reads the slots as they stand; nothing waits for a
    // recording thread to exit.
    count(ids().traceCacheHit, 3);
    EXPECT_EQ(scalarOf(ids().traceCacheHit), 3u);
    count(ids().traceCacheHit, 2);
    EXPECT_EQ(scalarOf(ids().traceCacheHit), 5u);
}

TEST_F(ObsRegistryTest, ConcurrentHistogramSummaryIsExact)
{
    // Whole-number samples keep the double sum exact in any order.
    constexpr int kThreads = 4;
    constexpr int kPerThread = 1000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            for (int i = 0; i < kPerThread; ++i)
                observe(ids().poolTaskSeconds,
                        static_cast<double>(t * kPerThread + i));
        });
    }
    for (std::thread &t : threads)
        t.join();
    Snapshot snap = Registry::instance().snapshot();
    const InstrumentValue &v = snap.values.at(ids().poolTaskSeconds);
    constexpr double kN = kThreads * kPerThread;
    EXPECT_EQ(v.count, static_cast<uint64_t>(kN));
    EXPECT_DOUBLE_EQ(v.sum, kN * (kN - 1) / 2);
    EXPECT_DOUBLE_EQ(v.min, 0.0);
    EXPECT_DOUBLE_EQ(v.max, kN - 1);
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
