#include "util/thread_pool.hpp"

#include <pthread.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <string>

#include "util/env.hpp"
#include "util/logging.hpp"
#include "util/metrics_hooks.hpp"
#include "util/sync.hpp"

namespace copra {

namespace {

// copra-lint: sanctioned-global(per-thread marker so a parallelFor nested in a pool task, like the oracle select inside a bench suite task, degrades to inline execution; never crosses threads)
thread_local bool t_on_worker_thread = false;

} // namespace

ThreadPool::ThreadPool(unsigned threads)
    : owner_pid_(static_cast<long>(::getpid()))
{
    if (threads == 0)
        threads = defaultThreadCount();
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this]() { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    if (!inOwningProcess()) {
        // A forked child (e.g. a gtest death test exiting through the
        // global pool's static destructor) inherits the thread handles
        // but not the threads; join() would block forever on tids that
        // only ever existed in the parent. Detach and walk away — the
        // parent still owns and joins the real threads.
        for (std::thread &worker : workers_)
            worker.detach();
        return;
    }
    {
        util::MutexLock lock(mutex_);
        stop_ = true;
    }
    available_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

size_t
ThreadPool::pending() const
{
    util::MutexLock lock(mutex_);
    return queue_.size();
}

void
ThreadPool::enqueue(std::function<void()> task)
{
    size_t depth;
    {
        util::MutexLock lock(mutex_);
        panicIf(stop_, "thread pool: submit after shutdown");
        queue_.push_back(std::move(task));
        depth = queue_.size();
    }
    available_.notify_one();
    if (const util::PoolMetricsHooks *hooks = util::poolMetricsHooks();
        hooks != nullptr && hooks->taskQueued != nullptr)
        hooks->taskQueued(depth);
}

void
ThreadPool::workerLoop()
{
    t_on_worker_thread = true;
    for (;;) {
        std::function<void()> task;
        {
            util::MutexLock lock(mutex_);
            while (!stop_ && queue_.empty())
                mutex_.wait(available_);
            // Drain remaining work even when stopping, so ~ThreadPool
            // never abandons a task whose future somebody holds.
            if (queue_.empty())
                return;
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        const util::PoolMetricsHooks *hooks = util::poolMetricsHooks();
        if (hooks != nullptr && hooks->taskExecuted != nullptr) {
            auto start = std::chrono::steady_clock::now();
            task();
            hooks->taskExecuted(std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() -
                                    start)
                                    .count());
        } else {
            task();
        }
    }
}

bool
ThreadPool::onWorkerThread()
{
    return t_on_worker_thread;
}

bool
ThreadPool::inOwningProcess() const
{
    return owner_pid_ == static_cast<long>(::getpid());
}

unsigned
defaultThreadCount()
{
    if (const char *env = util::envRaw("COPRA_THREADS")) {
        char *end = nullptr;
        long parsed = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && parsed > 0)
            return static_cast<unsigned>(parsed);
        if (env[0] != '\0')
            warn("ignoring invalid COPRA_THREADS value '" +
                 std::string(env) + "'");
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

namespace {

// The process-wide pool singleton (DESIGN.md §7): simulation results
// never flow through it, only work items, so it cannot break
// determinism; it exists exactly once so fork handlers can find it.
// copra-lint: sanctioned-global(thread-pool singleton registry mutex)
util::Mutex g_pool_mutex;
// copra-lint: sanctioned-global(the thread-pool singleton itself)
std::unique_ptr<ThreadPool> g_pool COPRA_GUARDED_BY(g_pool_mutex);
// copra-lint: sanctioned-global(one-shot pthread_atfork registration)
std::once_flag g_atfork_once;

/**
 * The pthread_atfork protocol, spelled as named functions so each can
 * declare its half of the acquire/release pair: prepare takes the
 * registry mutex so the child's copy is never stuck locked, and both
 * continuations release it on their side of the fork.
 */
void
atforkPrepare() COPRA_ACQUIRE(g_pool_mutex)
{
    g_pool_mutex.lock();
}

void
atforkParent() COPRA_RELEASE(g_pool_mutex)
{
    g_pool_mutex.unlock();
}

void
atforkChild() COPRA_RELEASE(g_pool_mutex)
{
    // Leak the child's copy of the pool: it has no worker threads, and
    // even destroying it would block in pthread_cond_destroy (the
    // condvar's copied state still counts the parent's parked workers
    // as waiters).
    g_pool.release();
    g_pool_mutex.unlock();
}

/**
 * A forked child inherits the global pool object but none of its worker
 * threads, and even destroying the copy is unsafe (see atforkChild).
 * (gtest death tests hit exactly this — fork, then exit(1) through the
 * static destructors.) So on fork we leak the child's copy; a child
 * that wants parallelism gets a fresh pool on its next globalPool()
 * call.
 */
void
registerForkHandlers()
{
    std::call_once(g_atfork_once, []() {
        ::pthread_atfork(atforkPrepare, atforkParent, atforkChild);
    });
}

} // namespace

ThreadPool &
globalPool()
{
    registerForkHandlers();
    util::MutexLock lock(g_pool_mutex);
    if (!g_pool)
        g_pool = std::make_unique<ThreadPool>(defaultThreadCount());
    // The reference outlives the lock by design: the pointer itself is
    // guarded (set-once-or-swap under the mutex), while the pool object
    // is internally synchronized.
    return *g_pool;
}

void
setGlobalPoolThreads(unsigned threads)
{
    registerForkHandlers();
    std::unique_ptr<ThreadPool> fresh =
        std::make_unique<ThreadPool>(threads);
    util::MutexLock lock(g_pool_mutex);
    g_pool = std::move(fresh);
}

void
parallelFor(ThreadPool &pool, size_t n,
            const std::function<void(size_t)> &fn)
{
    if (n == 0)
        return;
    if (n < 2 || pool.size() < 2 || ThreadPool::onWorkerThread() ||
        !pool.inOwningProcess()) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    // Dynamic claiming: every task takes the next unclaimed index from
    // one shared counter until none is left, so a slow index holds
    // back only the task running it, never the indices after it. Which
    // task runs which index depends on scheduling; the results cannot,
    // because each index writes only its own slot.
    //
    // After a throw no task claims a new index, and the caller rethrows
    // the lowest index that threw. Indices are claimed in ascending
    // order and a claimed index always runs, so every index below a
    // throwing one ran: the lowest thrower is the serial loop's.
    struct Failure
    {
        size_t index = 0;
        std::exception_ptr error;
    };
    size_t tasks = std::min<size_t>(n, pool.size());
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    // One slot per task: a task stops at its first throw, so it writes
    // its slot at most once, and the caller reads it after get().
    std::vector<Failure> failures(tasks);
    std::vector<std::future<void>> futures;
    futures.reserve(tasks);
    for (size_t t = 0; t < tasks; ++t) {
        futures.push_back(pool.submit([&, t]() {
            while (!failed.load(std::memory_order_relaxed)) {
                size_t i = next.fetch_add(1, std::memory_order_relaxed);
                if (i >= n)
                    return;
                try {
                    fn(i);
                } catch (...) {
                    failures[t] = {i, std::current_exception()};
                    failed.store(true, std::memory_order_relaxed);
                    return;
                }
            }
        }));
    }
    // Wait for every task before rethrowing: the tasks capture this
    // frame by reference, so none may outlive it.
    for (auto &future : futures)
        future.get();
    const Failure *lowest = nullptr;
    for (const Failure &failure : failures)
        if (failure.error && (!lowest || failure.index < lowest->index))
            lowest = &failure;
    if (lowest)
        std::rethrow_exception(lowest->error);
}

} // namespace copra
