#include "trace/trace_cache.hpp"

#include <atomic>
#include <filesystem>
#include <system_error>

#include "obs/instruments.hpp"
#include "obs/registry.hpp"
#include "trace/trace_io.hpp"
#include "util/env.hpp"
#include "util/logging.hpp"

namespace copra::trace {

namespace fs = std::filesystem;

std::string
TraceCacheKey::fileName() const
{
    // The benchmark name lands in a file name; keep it to a safe
    // character set so a hostile or odd workload name cannot escape the
    // cache directory.
    std::string safe;
    safe.reserve(benchmark.size());
    for (char c : benchmark) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
            (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
        safe.push_back(ok ? c : '_');
    }
    return safe + "-b" + std::to_string(branches) + "-s" +
        std::to_string(seed) + "-v" + std::to_string(kTraceFormatVersion) +
        ".trc";
}

TraceCache::TraceCache(std::string dir)
    : dir_(std::move(dir))
{
    if (dir_.empty())
        dir_ = util::envString("COPRA_CACHE_DIR", ".copra-cache");
}

std::string
TraceCache::pathFor(const TraceCacheKey &key) const
{
    return (fs::path(dir_) / key.fileName()).string();
}

std::optional<Trace>
TraceCache::load(const TraceCacheKey &key) const
{
    std::string path = pathFor(key);
    std::error_code ec;
    if (!fs::exists(path, ec)) {
        obs::count(obs::ids().traceCacheMiss);
        return std::nullopt;
    }
    uint64_t bytes = fs::file_size(path, ec);
    if (ec)
        bytes = 0;
    try {
        // The trace views the mapped entry in place; an entry the
        // loader rejects, e.g. a wrong-version header, is evicted.
        Trace trace = loadBinary(path);
        if (trace.name() != key.benchmark) {
            warn("trace cache: entry " + path +
                 " is labeled '" + trace.name() + "', dropping it");
            fs::remove(path, ec);
            obs::count(obs::ids().traceCacheEvict);
            obs::count(obs::ids().traceCacheMiss);
            return std::nullopt;
        }
        obs::count(obs::ids().traceCacheHit);
        obs::count(obs::ids().traceCacheReadBytes, bytes);
        obs::observe(obs::ids().traceCacheEntryBytes,
                     static_cast<double>(bytes));
        return trace;
    } catch (const std::exception &e) {
        warn("trace cache: dropping unreadable entry " + path + " (" +
             e.what() + ")");
        fs::remove(path, ec);
        obs::count(obs::ids().traceCacheEvict);
        obs::count(obs::ids().traceCacheMiss);
        return std::nullopt;
    }
}

bool
TraceCache::store(const TraceCacheKey &key, const Trace &trace) const
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec) {
        warn("trace cache: cannot create " + dir_ + ": " + ec.message());
        return false;
    }

    // Unique temp name per store, then an atomic rename: readers only
    // ever see complete entries, even with concurrent writers.
    // copra-lint: sanctioned-global(temp-file name uniquifier; names never reach results)
    static std::atomic<uint64_t> counter{0};
    std::string tmp = pathFor(key) + ".tmp" +
        std::to_string(counter.fetch_add(1));
    try {
        saveBinary(trace, tmp);
    } catch (const std::exception &e) {
        warn("trace cache: store failed: " + std::string(e.what()));
        fs::remove(tmp, ec);
        return false;
    }
    fs::rename(tmp, pathFor(key), ec);
    if (ec) {
        warn("trace cache: rename failed: " + ec.message());
        fs::remove(tmp, ec);
        return false;
    }
    uint64_t bytes = fs::file_size(pathFor(key), ec);
    if (!ec) {
        obs::count(obs::ids().traceCacheWriteBytes, bytes);
        obs::observe(obs::ids().traceCacheEntryBytes,
                     static_cast<double>(bytes));
    }
    return true;
}

Trace
TraceCache::loadOrGenerate(const TraceCacheKey &key,
                           const std::function<Trace()> &generate) const
{
    if (std::optional<Trace> cached = load(key))
        return std::move(*cached);
    Trace trace = generate();
    store(key, trace);
    return trace;
}

namespace {

// Cache config toggled once by CLI parsing before any simulation runs;
// caching only short-circuits regeneration of byte-identical traces.
// Lock-free by design: relaxed ordering is enough because the flag is
// written before the pool fans out and the cached bytes it gates are
// identical to regeneration (no data is published through the flag).
// copra-lint: sanctioned-global(process-wide trace-cache on/off switch)
std::atomic<bool> g_cache_enabled{false};

} // namespace

bool
traceCacheEnabled()
{
    return g_cache_enabled.load(std::memory_order_relaxed);
}

void
setTraceCacheEnabled(bool enabled)
{
    g_cache_enabled.store(enabled, std::memory_order_relaxed);
}

const TraceCache &
globalTraceCache()
{
    static const TraceCache cache;
    return cache;
}

} // namespace copra::trace
