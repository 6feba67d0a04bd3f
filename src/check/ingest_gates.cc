#include "check/ingest_gates.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <tuple>
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

/** Temp path for the emitted cache-v4 file; pid-qualified so
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

/** Byte-compare every SoA column, the site table and the derived
 * indices plus identity metadata. */
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
        sa.siteCount() != sb.siteCount() ||
        sa.staticCount() != sb.staticCount()) {
        detail = "size mismatch";
        return false;
    }
    size_t n = sa.size();
    auto sameSite = [](const trace::Site &x, const trace::Site &y) {
        return x.pc == y.pc && x.target == y.target && x.kind == y.kind &&
            x.branch == y.branch;
    };
    const std::pair<const char *, bool> columns[] = {
        {"site", sameColumn(sa.site(), sb.site(), n)},
        {"taken", sameColumn(sa.taken(), sb.taken(), n)},
        {"sites", std::ranges::equal(sa.sites(), sb.sites(), sameSite)},
        {"staticPcs", std::ranges::equal(sa.staticPcs(), sb.staticPcs())},
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
 * verification: every site kind decodes, no two sites share a (pc,
 * target, kind) triple, and each site's static id is what interning
 * the site pcs in order assigns; every site id is in range and first
 * appears in order, every site is referenced and every taken byte is
 * 0/1; the segments are exactly the maximal conditional runs of the
 * records; and the conditional count matches.
 */
bool
structurallyValid(const Trace &t, std::string &detail)
{
    const trace::SoABlocks &soa = t.soa();
    std::span<const trace::Site> sites = soa.sites();
    std::set<std::tuple<uint64_t, uint64_t, BranchKind>> triples;
    std::unordered_map<uint64_t, uint32_t> ids;
    std::vector<uint64_t> pcs;
    for (const trace::Site &site : sites) {
        if (site.kind > BranchKind::Return) {
            detail = "invalid kind escaped validation";
            return false;
        }
        if (!triples.emplace(site.pc, site.target, site.kind).second) {
            detail = "duplicate site escaped validation";
            return false;
        }
        auto [it, fresh] =
            ids.try_emplace(site.pc, static_cast<uint32_t>(ids.size()));
        if (fresh)
            pcs.push_back(site.pc);
        if (site.branch != it->second) {
            detail = "static id disagrees with the site pcs";
            return false;
        }
    }
    if (!std::ranges::equal(pcs, soa.staticPcs())) {
        detail = "static pcs disagree with the site pcs";
        return false;
    }

    std::vector<trace::SoABlocks::Segment> runs;
    uint64_t conditionals = 0;
    size_t next = 0; // the first site id not yet seen
    for (size_t i = 0; i < soa.size(); ++i) {
        uint32_t s = soa.site()[i];
        if (s > next || s >= sites.size()) {
            detail = "site id out of range or order at record " +
                std::to_string(i);
            return false;
        }
        next += s == next ? 1 : 0;
        if (soa.taken()[i] > 1) {
            detail = "taken byte above 1 escaped validation";
            return false;
        }
        if (sites[s].kind != BranchKind::Conditional)
            continue;
        ++conditionals;
        if (!runs.empty() && runs.back().begin + runs.back().count == i)
            ++runs.back().count;
        else
            runs.push_back({i, 1});
    }
    if (next != sites.size()) {
        detail = "unreferenced site escaped validation";
        return false;
    }
    auto segments = soa.conditionalSegments();
    if (!std::equal(runs.begin(), runs.end(), segments.begin(),
                    segments.end(), [](const auto &x, const auto &y) {
                        return x.begin == y.begin && x.count == y.count;
                    })) {
        detail = "segments disagree with the site kinds";
        return false;
    }
    if (conditionals != t.conditionalCount()) {
        detail = "conditional count out of sync with records";
        return false;
    }
    return true;
}

/**
 * Write @p bytes to @p temp and load them; nullopt when the loader
 * rejects them.
 */
std::optional<Trace>
loadImage(const std::string &bytes, const std::string &temp)
{
    {
        std::ofstream out(temp, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    try {
        return trace::loadBinary(temp);
    } catch (const std::exception &) {
        return std::nullopt; // rejecting corrupt input is expected
    }
}

} // namespace

GateReport
runIngestGates(const IngestGateOptions &options)
{
    GateReport report;
    auto fail = [&](const std::string &gate, uint64_t seed,
                    const std::string &detail) {
        report.failures.push_back({"", gate, seed, detail});
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

    // Gate 2: cache-v4 emit, then load: the loaded trace is the
    // ingested one, column for column.
    std::string temp = gateTempPath();
    ++report.gatesRun;
    try {
        trace::saveBinary(ingested, temp);
        Trace loaded = trace::loadBinary(temp);
        std::string detail;
        if (!soaIdentical(ingested, loaded, detail))
            fail("emit-load-identity", 0, detail);

        // Gate 3: record-for-record round trip out of the v4 file.
        ++report.gatesRun;
        if (!recordsEqual(ingested, loaded))
            fail("round-trip", 0,
                 "v4 records differ from ingested records");
    } catch (const std::exception &e) {
        fail("emit-load-identity", 0, e.what());
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

    // Gate 5: corruption fuzz over the serialized v4 bytes and over
    // the text rendering — the loader and the ingester must throw or
    // produce a valid trace.
    std::string image_bytes;
    {
        std::ostringstream os;
        trace::writeBinary(ingested, os);
        image_bytes = os.str();
    }
    std::string text_bytes = renderText(ingested);
    for (uint64_t s = options.seedBase;
         s < options.seedBase + options.corruptionSeeds; ++s) {
        ++report.gatesRun;
        std::string detail;
        std::optional<Trace> loaded =
            loadImage(corruptBytes(image_bytes, s), temp);
        if (loaded && !structurallyValid(*loaded, detail))
            fail("corruption-fuzz", s, "binary: " + detail);
        ++report.gatesRun;
        std::string corrupted_text = corruptBytes(text_bytes, s);
        try {
            trace::IngestOptions opts;
            opts.format = trace::IngestFormat::Text;
            trace::IngestReport r3;
            std::istringstream in(corrupted_text);
            Trace t = trace::ingestStream(in, opts, r3);
            if (!structurallyValid(t, detail))
                fail("corruption-fuzz", s, "text: " + detail);
        } catch (const std::exception &) {
        }
    }

    // Gate 6: every re-sealed forgery passes the checksum, so only
    // verification stands between it and a silently wrong trace; the
    // loader must reject each one.
    for (unsigned f = 0; f < kForgeryCount; ++f) {
        ++report.gatesRun;
        std::string forged = forgeImage(image_bytes, static_cast<Forgery>(f),
                                        options.seedBase);
        std::string name = "forgery " + std::to_string(f);
        if (forged.empty()) {
            fail("forgery", 0, name + ": sample too small to forge");
            continue;
        }
        if (loadImage(forged, temp))
            fail("forgery", 0, name + ": loaded without an error");
    }
    std::error_code ec;
    std::filesystem::remove(temp, ec);
    return report;
}

} // namespace copra::check
