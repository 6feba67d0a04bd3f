/**
 * @file
 * Unit tests for the fixed-size task pool behind the parallel
 * experiment engine.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace copra {
namespace {

TEST(ThreadPool, RunsSubmittedTasksAndDeliversResults)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);

    std::vector<std::future<int>> futures;
    for (int i = 0; i < 32; ++i)
        futures.push_back(pool.submit([i]() { return i * i; }));
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
}

TEST(ThreadPool, SingleWorkerPoolStillCompletesEverything)
{
    ThreadPool pool(1);
    std::atomic<int> counter{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 16; ++i)
        futures.push_back(pool.submit([&counter]() { ++counter; }));
    for (auto &future : futures)
        future.get();
    EXPECT_EQ(counter.load(), 16);
}

TEST(ThreadPool, SubmitPropagatesExceptions)
{
    ThreadPool pool(2);
    auto future = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks)
{
    std::atomic<int> counter{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 64; ++i)
            pool.submit([&counter]() { ++counter; });
    }
    EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, OnWorkerThreadDistinguishesWorkers)
{
    EXPECT_FALSE(ThreadPool::onWorkerThread());
    ThreadPool pool(2);
    auto future =
        pool.submit([]() { return ThreadPool::onWorkerThread(); });
    EXPECT_TRUE(future.get());
    EXPECT_FALSE(ThreadPool::onWorkerThread());
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    const size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    parallelFor(pool, n, [&hits](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, HandlesEmptyAndSingleIteration)
{
    ThreadPool pool(3);
    parallelFor(pool, 0, [](size_t) { FAIL() << "no iterations"; });

    int calls = 0;
    parallelFor(pool, 1, [&calls](size_t i) {
        EXPECT_EQ(i, 0u);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, RethrowsIterationExceptions)
{
    ThreadPool pool(4);
    EXPECT_THROW(parallelFor(pool, 100,
                             [](size_t i) {
                                 if (i == 57)
                                     throw std::runtime_error("57");
                             }),
                 std::runtime_error);
}

TEST(ParallelFor, RethrowsTheLowestThrowingIndex)
{
    // Index 40 throws first in time; index 5 throws only after it. The
    // serial loop would throw at 5, so parallelFor must rethrow 5's
    // exception whichever finished first.
    ThreadPool pool(4);
    std::mutex mutex;
    std::condition_variable thrown;
    bool forty_threw = false;
    bool released = false;
    try {
        parallelFor(pool, 64, [&](size_t i) {
            if (i == 40) {
                {
                    std::lock_guard<std::mutex> lock(mutex);
                    forty_threw = true;
                }
                thrown.notify_all();
                throw std::runtime_error("40");
            }
            if (i == 5) {
                std::unique_lock<std::mutex> lock(mutex);
                released = thrown.wait_for(lock, std::chrono::seconds(10),
                                           [&] { return forty_threw; });
                throw std::runtime_error("5");
            }
        });
        FAIL() << "parallelFor did not rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "5");
    }
    EXPECT_TRUE(released) << "index 40 never ran while 5 waited";
}

TEST(ParallelFor, SlowIndexDoesNotHoldBackLaterOnes)
{
    // Index 0 blocks until every other index has run. Under a static
    // split the indices sharing index 0's slice would queue behind it
    // and the wait would time out; claimed one at a time, the other
    // three tasks run all 63.
    ThreadPool pool(4);
    const size_t n = 64;
    std::mutex mutex;
    std::condition_variable done;
    size_t others = 0;
    size_t seen = 0;
    bool released = false;
    parallelFor(pool, n, [&](size_t i) {
        std::unique_lock<std::mutex> lock(mutex);
        if (i == 0) {
            released = done.wait_for(lock, std::chrono::seconds(10),
                                     [&] { return others == n - 1; });
            seen = others;
            return;
        }
        ++others;
        done.notify_all();
    });
    EXPECT_TRUE(released) << "only " << seen << " of " << n - 1
                          << " other indices ran while index 0 waited";
}

TEST(ParallelFor, NestedInvocationRunsInlineWithoutDeadlock)
{
    ThreadPool pool(2);
    std::atomic<int> inner_total{0};
    // Saturate the pool with tasks that each run a nested parallelFor;
    // without the worker-thread fallback this deadlocks.
    parallelFor(pool, 8, [&](size_t) {
        parallelFor(pool, 8, [&](size_t) { ++inner_total; });
    });
    EXPECT_EQ(inner_total.load(), 64);
}

TEST(ParallelForDeath, RunsInlineInForkedChild)
{
    // Death tests fork; the child inherits the pool object but none of
    // its workers, so parallelFor must fall back to the inline loop
    // instead of waiting on tasks nobody will run. Without that
    // fallback this test hangs rather than exiting.
    ThreadPool pool(4);
    EXPECT_EXIT(
        {
            int sum = 0;
            parallelFor(pool, 8, [&sum](size_t i) {
                sum += static_cast<int>(i);
            });
            _exit(sum == 28 ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "");
}

TEST(ThreadPool, OversubscribedPoolCoversEveryIndexOnce)
{
    // Far more workers than cores: claiming from the shared counter
    // must hand out every index once however the OS schedules them.
    unsigned hw = std::thread::hardware_concurrency();
    ThreadPool pool(4 * (hw ? hw : 1));
    const size_t n = 2000;
    std::vector<std::atomic<int>> hits(n);
    parallelFor(pool, n, [&hits](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, PoolSurvivesThrowingTasksAndStaysUsable)
{
    ThreadPool pool(4);
    for (int round = 0; round < 3; ++round)
        EXPECT_THROW(parallelFor(pool, 64,
                                 [](size_t i) {
                                     if (i % 7 == 0)
                                         throw std::runtime_error("x");
                                 }),
                     std::runtime_error);
    std::atomic<int> counter{0};
    parallelFor(pool, 64, [&counter](size_t) { ++counter; });
    EXPECT_EQ(counter.load(), 64);
}

/** Scoped save/restore of COPRA_THREADS around the parsing tests. */
class CopraThreadsEnv : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const char *old = std::getenv("COPRA_THREADS");
        had_ = old != nullptr;
        saved_ = had_ ? old : "";
    }

    void
    TearDown() override
    {
        if (had_)
            ::setenv("COPRA_THREADS", saved_.c_str(), 1);
        else
            ::unsetenv("COPRA_THREADS");
    }

  private:
    bool had_ = false;
    std::string saved_;
};

TEST_F(CopraThreadsEnv, PositiveValuesAreHonoured)
{
    ::setenv("COPRA_THREADS", "3", 1);
    EXPECT_EQ(defaultThreadCount(), 3u);
    // Oversubscription is allowed: parallelFor's results never depend
    // on the worker count matching the hardware.
    ::setenv("COPRA_THREADS", "64", 1);
    EXPECT_EQ(defaultThreadCount(), 64u);
}

TEST_F(CopraThreadsEnv, ZeroNegativeAndGarbageFallBackToHardware)
{
    unsigned hw = std::thread::hardware_concurrency();
    unsigned fallback = hw ? hw : 1;
    for (const char *bad : {"0", "-2", "abc", "4x", ""}) {
        ::setenv("COPRA_THREADS", bad, 1);
        EXPECT_EQ(defaultThreadCount(), fallback) << "value '" << bad
                                                  << "'";
    }
    ::unsetenv("COPRA_THREADS");
    EXPECT_EQ(defaultThreadCount(), fallback);
}

TEST(GlobalPool, ResizableAndUsable)
{
    setGlobalPoolThreads(2);
    EXPECT_EQ(globalPool().size(), 2u);
    std::atomic<int> counter{0};
    parallelFor(globalPool(), 10, [&counter](size_t) { ++counter; });
    EXPECT_EQ(counter.load(), 10);
    setGlobalPoolThreads(0); // back to the default size
    EXPECT_EQ(globalPool().size(), defaultThreadCount());
}

} // namespace
} // namespace copra
