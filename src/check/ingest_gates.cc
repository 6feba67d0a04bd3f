#include "check/ingest_gates.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "check/fuzz.hpp"
#include "trace/ingest.hpp"
#include "trace/trace_io.hpp"

namespace copra::check {

using trace::BranchKind;
using trace::BranchRecord;
using trace::Trace;

namespace {

/** Temp path for the emitted cache-v3 file; pid-qualified so
 * concurrent ctest invocations do not fight over one name. */
std::string
gateTempPath()
{
    std::filesystem::path dir = std::filesystem::temp_directory_path();
    return (dir / ("copra-ingest-gate-" + std::to_string(getpid()) +
                   ".trc"))
        .string();
}

template <typename T>
bool
sameColumn(const T *a, const T *b, size_t n)
{
    return n == 0 || std::memcmp(a, b, n * sizeof(T)) == 0;
}

/** Byte-compare every SoA column and derived index plus identity
 * metadata. */
bool
soaIdentical(const Trace &a, const Trace &b, std::string &detail)
{
    if (a.name() != b.name()) {
        detail = "name mismatch: '" + a.name() + "' vs '" + b.name() +
            "'";
        return false;
    }
    if (a.seed() != b.seed()) {
        detail = "seed mismatch";
        return false;
    }
    const trace::SoABlocks &sa = a.soa();
    const trace::SoABlocks &sb = b.soa();
    if (sa.size() != sb.size() ||
        sa.conditionalCount() != sb.conditionalCount() ||
        sa.staticCount() != sb.staticCount()) {
        detail = "size mismatch";
        return false;
    }
    size_t n = sa.size();
    const std::pair<const char *, bool> columns[] = {
        {"pc", sameColumn(sa.pc(), sb.pc(), n)},
        {"target", sameColumn(sa.target(), sb.target(), n)},
        {"kind", sameColumn(sa.kind(), sb.kind(), n)},
        {"taken", sameColumn(sa.taken(), sb.taken(), n)},
        {"staticIndex", sameColumn(sa.staticIndex(), sb.staticIndex(), n)},
        {"staticPcs", sameColumn(sa.staticPcs().data(),
                                 sb.staticPcs().data(), sa.staticCount())},
    };
    for (const auto &[column, same] : columns) {
        if (!same) {
            detail = std::string(column) + " column differs";
            return false;
        }
    }
    auto segA = sa.conditionalSegments();
    auto segB = sb.conditionalSegments();
    if (!std::equal(segA.begin(), segA.end(), segB.begin(), segB.end(),
                    [](const auto &x, const auto &y) {
                        return x.begin == y.begin && x.count == y.count;
                    })) {
        detail = "conditional segments differ";
        return false;
    }
    return true;
}

/** Render @p t in the native text grammar (with version directive). */
std::string
renderText(const Trace &t)
{
    std::ostringstream os;
    os << "# copra-branch-trace v1\n";
    trace::writeText(t, os);
    return os.str();
}

/** Render @p t as CSV with an explicit in-order index column. */
std::string
renderCsv(const Trace &t)
{
    std::ostringstream os;
    os << "index,kind,pc,target,taken\n";
    uint64_t index = 0;
    for (const BranchRecord &rec : t.records()) {
        os << index++ << ',' << trace::branchKindName(rec.kind) << ','
           << "0x" << std::hex << rec.pc << ",0x" << rec.target
           << std::dec << ',' << (rec.taken ? 'T' : 'N') << '\n';
    }
    return os.str();
}

bool
recordsEqual(const Trace &a, const Trace &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (!(a[i] == b[i]))
            return false;
    return true;
}

/**
 * A loaded-without-throwing corrupt trace must still be structurally
 * valid. Checked from first principles, not through the loader's own
 * verification: every kind decodes and every taken byte is 0/1; the
 * static index equals what interning the pc column in order assigns
 * (in range, naming its record's pc, first-appearance order, distinct
 * static pcs, all referenced); the segments are exactly the maximal
 * conditional runs of the kind column; and the conditional count
 * matches.
 */
bool
structurallyValid(const Trace &t, std::string &detail)
{
    const trace::SoABlocks &soa = t.soa();
    std::unordered_map<uint64_t, uint32_t> ids;
    std::vector<uint64_t> pcs;
    std::vector<trace::SoABlocks::Segment> runs;
    uint64_t conditionals = 0;
    for (size_t i = 0; i < soa.size(); ++i) {
        if (soa.kind()[i] > static_cast<uint8_t>(BranchKind::Return)) {
            detail = "invalid kind escaped validation";
            return false;
        }
        if (soa.taken()[i] > 1) {
            detail = "taken byte above 1 escaped validation";
            return false;
        }
        auto [it, fresh] = ids.try_emplace(
            soa.pc()[i], static_cast<uint32_t>(ids.size()));
        if (fresh)
            pcs.push_back(soa.pc()[i]);
        if (soa.staticIndex()[i] != it->second) {
            detail = "static index disagrees with the pc column at record " +
                std::to_string(i);
            return false;
        }
        if (soa.kind()[i] != static_cast<uint8_t>(BranchKind::Conditional))
            continue;
        ++conditionals;
        if (!runs.empty() && runs.back().begin + runs.back().count == i)
            ++runs.back().count;
        else
            runs.push_back({i, 1});
    }
    if (!std::ranges::equal(pcs, soa.staticPcs())) {
        detail = "static pcs disagree with the pc column";
        return false;
    }
    auto segments = soa.conditionalSegments();
    if (!std::equal(runs.begin(), runs.end(), segments.begin(),
                    segments.end(), [](const auto &x, const auto &y) {
                        return x.begin == y.begin && x.count == y.count;
                    })) {
        detail = "segments disagree with the kind column";
        return false;
    }
    if (conditionals != t.conditionalCount()) {
        detail = "conditional count out of sync with records";
        return false;
    }
    return true;
}

/**
 * Load corrupted cache-v3 bytes through both loaders — readBinary from
 * memory and loadBinaryMapped from @p temp — and return "" when they
 * agree: both reject, or both load identical, structurally valid
 * traces. Otherwise return what went wrong.
 */
std::string
loadersAgreeOnCorruption(const std::string &bytes, const std::string &temp)
{
    std::optional<Trace> streamed, mapped;
    try {
        std::istringstream in(bytes);
        streamed = trace::readBinary(in);
    } catch (const std::exception &) {
        // Rejecting corrupt input is the expected outcome.
    }
    {
        std::ofstream out(temp, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    try {
        mapped = trace::loadBinaryMapped(temp);
    } catch (const std::exception &) {
    }
    if (streamed.has_value() != mapped.has_value())
        return streamed ? "only the mapped loader rejects it"
                        : "only the stream loader rejects it";
    std::string detail;
    if (streamed && !structurallyValid(*streamed, detail))
        return detail;
    if (streamed && !soaIdentical(*streamed, *mapped, detail))
        return "loaders disagree: " + detail;
    return "";
}

} // namespace

IngestGateReport
runIngestGates(const IngestGateOptions &options)
{
    IngestGateReport report;
    auto fail = [&](const std::string &gate, uint64_t seed,
                    const std::string &detail) {
        report.failures.push_back({gate, seed, detail});
    };

    // Gate 1: the committed sample ingests, with conditionals to
    // predict and idempotent normalization (re-ingesting our own
    // rendering coerces nothing).
    Trace ingested;
    trace::IngestReport ingest_report;
    ++report.gatesRun;
    try {
        trace::IngestOptions opts;
        ingested =
            trace::ingestFile(options.samplePath, opts, ingest_report);
        if (ingested.empty())
            fail("reference-ingest", 0, "sample has no records");
        else if (ingested.conditionalCount() == 0)
            fail("reference-ingest", 0,
                 "sample has no conditional branches");
    } catch (const std::exception &e) {
        fail("reference-ingest", 0, e.what());
        return report; // everything downstream needs the sample
    }

    // Gate 2: cache-v3 emit, then stream-load vs mmap-load identity.
    std::string temp = gateTempPath();
    ++report.gatesRun;
    try {
        trace::saveBinary(ingested, temp);
        Trace streamed = trace::loadBinary(temp);
        Trace mapped = trace::loadBinaryMapped(temp);
        std::string detail;
        if (!soaIdentical(streamed, mapped, detail))
            fail("stream-mmap-identity", 0, detail);
        if (!soaIdentical(ingested, mapped, detail))
            fail("stream-mmap-identity", 0,
                 "mmap load differs from ingested trace: " + detail);

        // Gate 3: record-for-record round trip out of the v3 file.
        ++report.gatesRun;
        if (!recordsEqual(ingested, streamed))
            fail("round-trip", 0,
                 "v3 records differ from ingested records");
    } catch (const std::exception &e) {
        fail("stream-mmap-identity", 0, e.what());
    }

    // Gate 4: the text and CSV grammars reproduce the same records.
    ++report.gatesRun;
    try {
        trace::IngestOptions opts;
        opts.name = ingested.name();
        trace::IngestReport r2;
        std::istringstream text_in(renderText(ingested));
        Trace from_text = trace::ingestStream(text_in, opts, r2);
        if (!recordsEqual(ingested, from_text))
            fail("cross-format", 0, "text re-ingest differs");
        if (r2.normalizedTaken != 0)
            fail("cross-format", 0,
                 "normalization not idempotent over text");
        std::istringstream csv_in(renderCsv(ingested));
        Trace from_csv = trace::ingestStream(csv_in, opts, r2);
        if (!recordsEqual(ingested, from_csv))
            fail("cross-format", 0, "CSV re-ingest differs");
    } catch (const std::exception &e) {
        fail("cross-format", 0, e.what());
    }

    // Gate 5: corruption fuzz over the serialized v3 bytes, through
    // both loaders, and over the text rendering — loaders must throw
    // or produce a valid trace.
    std::string v3_bytes;
    {
        std::ostringstream os;
        trace::writeBinary(ingested, os);
        v3_bytes = os.str();
    }
    std::string text_bytes = renderText(ingested);
    for (uint64_t s = options.seedBase;
         s < options.seedBase + options.corruptionSeeds; ++s) {
        ++report.gatesRun;
        std::string why =
            loadersAgreeOnCorruption(corruptBytes(v3_bytes, s), temp);
        if (!why.empty())
            fail("corruption-fuzz", s, "binary: " + why);
        ++report.gatesRun;
        std::string corrupted_text = corruptBytes(text_bytes, s);
        try {
            trace::IngestOptions opts;
            opts.format = trace::IngestFormat::Text;
            trace::IngestReport r3;
            std::istringstream in(corrupted_text);
            Trace t = trace::ingestStream(in, opts, r3);
            std::string detail;
            if (!structurallyValid(t, detail))
                fail("corruption-fuzz", s, "text: " + detail);
        } catch (const std::exception &) {
        }
    }

    // Gate 6: every re-sealed forgery passes the checksum, so only
    // verification stands between it and a silently wrong trace; both
    // loaders must reject each one.
    for (unsigned f = 0; f < kForgeryCount; ++f) {
        ++report.gatesRun;
        std::string forged = forgeImage(v3_bytes, static_cast<Forgery>(f),
                                        options.seedBase);
        std::string name = "forgery " + std::to_string(f);
        if (forged.empty()) {
            fail("forgery", 0, name + ": sample too small to forge");
            continue;
        }
        std::string why = loadersAgreeOnCorruption(forged, temp);
        if (!why.empty())
            fail("forgery", 0, name + ": " + why);
        try {
            std::istringstream in(forged);
            trace::readBinary(in);
            fail("forgery", 0, name + ": loaded without an error");
        } catch (const std::exception &) {
        }
    }
    std::error_code ec;
    std::filesystem::remove(temp, ec);
    return report;
}

std::string
formatIngestGateReport(const IngestGateReport &report)
{
    std::ostringstream os;
    os << "ingest gates: " << report.gatesRun << " checks, "
       << report.failures.size() << " failure(s)\n";
    for (const IngestGateFailure &f : report.failures) {
        os << "  FAIL [" << f.gate << "]";
        if (f.seed != 0)
            os << " seed=" << f.seed;
        os << ": " << f.detail << "\n";
    }
    return os.str();
}

} // namespace copra::check
