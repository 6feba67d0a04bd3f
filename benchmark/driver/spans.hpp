/**
 * @file
 * Span recording for the traced run. Each job (and the main thread)
 * owns a SpanBuffer reserved before the job starts; a job runs on one
 * pool worker, so recording takes no lock and, while the reservation
 * holds, allocates nothing. Spans are written out at exit as Chrome
 * trace-event JSON (opens in Perfetto) and reduced to per-layer self
 * time: a span's duration minus the part its child spans cover.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace copra::bench {

/** One closed interval at a layer boundary. */
struct SpanRecord
{
    const char *name = "";   //!< layer name; points at a string literal
    int64_t startNs = 0;     //!< steady-clock time since the run epoch
    int64_t endNs = 0;
    int32_t parent = -1;     //!< index in the same buffer; -1 = root
    uint64_t branches = 0;   //!< conditional branches the call processed
    uint64_t bytes = 0;      //!< bytes the call moved (trace I/O)
};

/** Spans of one job, or of the main thread; written by one thread. */
struct SpanBuffer
{
    std::string label;       //!< e.g. "iter 3 gcc"; set before the job
    uint32_t thread = 0;     //!< small id of the thread that filled it
    int32_t open = -1;       //!< innermost open span
    std::vector<SpanRecord> spans;

    explicit SpanBuffer(size_t capacity = 32) { spans.reserve(capacity); }
};

/** Nanoseconds since the run epoch (the first call). */
int64_t nowNs();

/** Small dense id of the calling thread (0 = first thread to ask). */
uint32_t threadId();

/**
 * RAII span; a null buffer makes it a no-op, so untraced runs pay one
 * branch per layer call.
 */
class Span
{
  public:
    Span(SpanBuffer *buffer, const char *name);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Attach the work the call did (for ns/branch and MB/s). */
    void work(uint64_t branches, uint64_t bytes = 0);

  private:
    SpanBuffer *buffer_;
    int32_t index_ = -1;
};

/** Self time and work of one layer, summed over many spans. */
struct LayerTotals
{
    double selfSeconds = 0.0;
    uint64_t branches = 0;
    uint64_t bytes = 0;
    uint64_t calls = 0;
};

/** Per-layer totals over @p buffers, keyed by span name. */
std::map<std::string, LayerTotals>
layerTotals(const std::vector<const SpanBuffer *> &buffers);

/** Write @p buffers as Chrome trace-event JSON; false on I/O error. */
bool writeChromeTrace(const std::string &path,
                      const std::vector<const SpanBuffer *> &buffers);

} // namespace copra::bench
