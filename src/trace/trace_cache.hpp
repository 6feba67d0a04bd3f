/**
 * @file
 * On-disk trace cache: memoizes generated benchmark traces so repeated
 * bench/experiment runs skip workload regeneration entirely.
 *
 * Entries are keyed by (benchmark, branches, seed, binary-format
 * version); the key is encoded in the file name, so bumping
 * kTraceFormatVersion invalidates every existing entry without any
 * bookkeeping (old files are simply never looked up). Hits are served
 * by memory-mapping the cache-v3 file (loadBinaryMapped): the trace
 * views its columns and static index in the mapping after a checksum
 * and one verification pass — no column copy, no per-record hashing.
 * A file the mapped loader rejects is retried through the stream
 * loader (the only path on platforms without mmap; it shares the
 * mapped loader's checks); corrupt, unreadable or wrong-version
 * entries are treated as misses and removed. Stores replace entries
 * by rename, so a trace still mapping the old file stays valid.
 *
 * The cache directory defaults to ".copra-cache/" and is overridable
 * with the COPRA_CACHE_DIR environment variable. Stores are atomic
 * (temp file + rename), so concurrent writers of the same key — e.g.
 * parallel bench tasks — can never expose a half-written trace.
 *
 * Concurrency contract (DESIGN.md §10): a TraceCache is immutable
 * after construction (dir_ is set once), so any number of pool workers
 * may call load/store/loadOrGenerate on the same instance
 * concurrently; cross-thread coordination happens entirely through
 * the filesystem's atomic rename. The process-wide enable flag and
 * the temp-file uniquifier are lock-free atomics — the only mutable
 * globals here, both sanctioned and annotated in trace_cache.cc.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "trace/trace.hpp"

namespace copra::trace {

/** Identity of one cached trace. */
struct TraceCacheKey
{
    std::string benchmark;  //!< workload name
    uint64_t branches = 0;  //!< dynamic conditional branches requested
    uint64_t seed = 0;      //!< execution seed as requested (0 = canonical)

    /** Entry file name, e.g. "gcc-b2000000-s0-v3.trc". */
    std::string fileName() const;
};

/** An on-disk store of generated traces under one directory. */
class TraceCache
{
  public:
    /**
     * @param dir Cache directory; "" resolves to $COPRA_CACHE_DIR,
     *            falling back to ".copra-cache".
     */
    explicit TraceCache(std::string dir = "");

    const std::string &dir() const { return dir_; }

    /** Absolute-or-relative path of the entry for @p key. */
    std::string pathFor(const TraceCacheKey &key) const;

    /**
     * Load the entry for @p key. Returns nullopt on a miss, and on a
     * corrupt / truncated / wrong-version / mislabeled entry (the bad
     * file is deleted so the next store can replace it).
     */
    std::optional<Trace> load(const TraceCacheKey &key) const;

    /**
     * Write @p trace as the entry for @p key (atomically).
     *
     * @return false when the entry could not be written (e.g. the cache
     *         directory is not creatable); the cache degrades to a
     *         no-op rather than failing the run.
     */
    bool store(const TraceCacheKey &key, const Trace &trace) const;

    /**
     * Load on a hit; otherwise run @p generate, store the result, and
     * return it.
     */
    Trace loadOrGenerate(const TraceCacheKey &key,
                         const std::function<Trace()> &generate) const;

  private:
    std::string dir_;
};

/**
 * Whether makeExperimentTrace-style helpers consult the global cache.
 * Off by default (unit tests and library users get pure generation);
 * the bench harnesses switch it on unless --no-trace-cache is given.
 */
bool traceCacheEnabled();

/** Toggle the global trace cache (see traceCacheEnabled). */
void setTraceCacheEnabled(bool enabled);

/** The process-wide cache instance (directory resolved on first use). */
const TraceCache &globalTraceCache();

} // namespace copra::trace

