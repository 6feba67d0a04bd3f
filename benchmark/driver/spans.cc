#include "spans.hpp"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>

namespace copra::bench {

int64_t
nowNs()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

uint32_t
threadId()
{
    static std::atomic<uint32_t> next{0};
    thread_local const uint32_t id = next.fetch_add(1);
    return id;
}

Span::Span(SpanBuffer *buffer, const char *name) : buffer_(buffer)
{
    if (!buffer_)
        return;
    SpanRecord record;
    record.name = name;
    record.parent = buffer_->open;
    record.startNs = nowNs();
    index_ = static_cast<int32_t>(buffer_->spans.size());
    buffer_->spans.push_back(record);
    buffer_->open = index_;
}

Span::~Span()
{
    if (!buffer_)
        return;
    SpanRecord &record = buffer_->spans[static_cast<size_t>(index_)];
    record.endNs = nowNs();
    buffer_->open = record.parent;
}

void
Span::work(uint64_t branches, uint64_t bytes)
{
    if (!buffer_)
        return;
    SpanRecord &record = buffer_->spans[static_cast<size_t>(index_)];
    record.branches += branches;
    record.bytes += bytes;
}

std::map<std::string, LayerTotals>
layerTotals(const std::vector<const SpanBuffer *> &buffers)
{
    std::map<std::string, LayerTotals> totals;
    for (const SpanBuffer *buffer : buffers) {
        const auto &spans = buffer->spans;
        std::vector<int64_t> childNs(spans.size(), 0);
        for (const SpanRecord &s : spans)
            if (s.parent >= 0)
                childNs[static_cast<size_t>(s.parent)] += s.endNs - s.startNs;
        for (size_t i = 0; i < spans.size(); ++i) {
            LayerTotals &t = totals[spans[i].name];
            t.selfSeconds +=
                static_cast<double>(spans[i].endNs - spans[i].startNs -
                                    childNs[i]) *
                1e-9;
            t.branches += spans[i].branches;
            t.bytes += spans[i].bytes;
            ++t.calls;
        }
    }
    return totals;
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<const SpanBuffer *> &buffers)
{
    std::error_code ec;
    std::filesystem::path parent = std::filesystem::path(path).parent_path();
    if (!parent.empty())
        std::filesystem::create_directories(parent, ec);
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    bool first = true;
    char buf[512];
    for (const SpanBuffer *buffer : buffers) {
        for (const SpanRecord &s : buffer->spans) {
            std::snprintf(
                buf, sizeof buf,
                "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                "{\"job\": \"%s\", \"branches\": %llu, \"bytes\": %llu}}",
                first ? "" : ",\n", s.name, buffer->thread,
                static_cast<double>(s.startNs) * 1e-3,
                static_cast<double>(s.endNs - s.startNs) * 1e-3,
                buffer->label.c_str(),
                static_cast<unsigned long long>(s.branches),
                static_cast<unsigned long long>(s.bytes));
            out << buf;
            first = false;
        }
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace copra::bench
