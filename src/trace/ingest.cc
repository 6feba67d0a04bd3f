#include "trace/ingest.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace copra::trace {

namespace {

/** Grammar version of the copra branch-trace text/CSV format this
 * reader understands (docs/TRACES.md). */
constexpr unsigned kIngestGrammarVersion = 1;

/** CBP-style binary header: magic, u32 version, u32 flags, u64 count. */
constexpr char kCbpMagic[8] = {'C', 'B', 'P', 'T', 'R', 'A', 'C', 'E'};
constexpr size_t kCbpHeaderBytes = 24;
constexpr size_t kCbpRecordBytes = 18;
constexpr uint32_t kCbpVersion = 1;

[[noreturn]] void
fail(const std::string &what)
{
    throw std::runtime_error("copra ingest: " + what);
}

uint64_t
readLe64(const unsigned char *p)
{
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

uint32_t
readLe32(const unsigned char *p)
{
    uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

bool
parseKind(const std::string &field, BranchKind &kind)
{
    if (field == "cond")
        kind = BranchKind::Conditional;
    else if (field == "jump")
        kind = BranchKind::Jump;
    else if (field == "call")
        kind = BranchKind::Call;
    else if (field == "ret")
        kind = BranchKind::Return;
    else
        return false;
    return true;
}

bool
parseTaken(const std::string &field, bool &taken)
{
    if (field == "T" || field == "1" || field == "true")
        taken = true;
    else if (field == "N" || field == "0" || field == "false")
        taken = false;
    else
        return false;
    return true;
}

/** Coerce a parsed record into the native convention, counting what
 * changed: executed non-conditional transfers are always taken. */
void
normalizeRecord(BranchRecord &rec, IngestReport &report)
{
    if (rec.kind != BranchKind::Conditional && !rec.taken) {
        rec.taken = true;
        ++report.normalizedTaken;
    }
}

Trace
ingestText(std::istream &is, IngestReport &report)
{
    Trace trace;
    std::string line;
    size_t line_no = 0;
    bool versioned = false;
    while (std::getline(is, line)) {
        ++line_no;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty()) {
            ++report.commentLines;
            continue;
        }
        if (line[0] == '#') {
            std::istringstream hdr(line.substr(1));
            std::string key;
            hdr >> key;
            if (key == "copra-branch-trace") {
                std::string ver;
                hdr >> ver;
                if (ver.size() < 2 || ver[0] != 'v')
                    fail("bad version directive on line " +
                         std::to_string(line_no));
                unsigned v = 0;
                try {
                    v = static_cast<unsigned>(
                        std::stoul(ver.substr(1)));
                } catch (const std::exception &) {
                    fail("bad version directive on line " +
                         std::to_string(line_no));
                }
                if (v > kIngestGrammarVersion)
                    fail("unsupported grammar version v" +
                         std::to_string(v));
                versioned = true;
            } else if (key == "name") {
                std::string name;
                hdr >> name;
                trace.setName(name);
            } else if (key == "seed") {
                uint64_t seed = 0;
                if (!(hdr >> seed))
                    fail("bad seed directive on line " +
                         std::to_string(line_no));
                trace.setSeed(seed);
            } else {
                ++report.commentLines;
            }
            continue;
        }
        std::istringstream ls(line);
        std::string kind_str, pc_str, target_str, taken_str, extra;
        if (!(ls >> kind_str >> pc_str >> target_str >> taken_str))
            fail("malformed record on line " + std::to_string(line_no));
        if (ls >> extra)
            fail("trailing field '" + extra + "' on line " +
                 std::to_string(line_no));
        BranchRecord rec;
        if (!parseKind(kind_str, rec.kind))
            fail("unknown kind '" + kind_str + "' on line " +
                 std::to_string(line_no));
        rec.pc = parseAddress(pc_str, line_no);
        rec.target = parseAddress(target_str, line_no);
        if (!parseTaken(taken_str, rec.taken))
            fail("bad outcome '" + taken_str + "' on line " +
                 std::to_string(line_no));
        normalizeRecord(rec, report);
        trace.append(rec);
    }
    if (!versioned)
        report.warnings.push_back(
            "no '# copra-branch-trace v1' directive; assumed v1");
    return trace;
}

/** Split one CSV line on commas, trimming surrounding spaces. */
std::vector<std::string>
splitCsv(const std::string &line)
{
    std::vector<std::string> fields;
    size_t start = 0;
    while (true) {
        size_t comma = line.find(',', start);
        std::string field = comma == std::string::npos
            ? line.substr(start)
            : line.substr(start, comma - start);
        size_t b = field.find_first_not_of(" \t");
        size_t e = field.find_last_not_of(" \t");
        fields.push_back(b == std::string::npos
                             ? std::string()
                             : field.substr(b, e - b + 1));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return fields;
}

Trace
ingestCsv(std::istream &is, IngestReport &report)
{
    struct IndexedRecord
    {
        uint64_t index;
        uint64_t arrival;
        BranchRecord rec;
    };
    std::vector<IndexedRecord> rows;
    std::string line;
    size_t line_no = 0;
    bool saw_header = false;
    bool has_index = false;
    bool shape_known = false;
    while (std::getline(is, line)) {
        ++line_no;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty() || line[0] == '#') {
            ++report.commentLines;
            continue;
        }
        std::vector<std::string> fields = splitCsv(line);
        if (!shape_known) {
            // First record-bearing line decides the row shape: an
            // optional header row, then 4 fields (kind,pc,target,taken)
            // or 5 (index,kind,pc,target,taken).
            if (!fields.empty() &&
                (fields[0] == "kind" || fields[0] == "index")) {
                saw_header = true;
                has_index = fields[0] == "index";
                shape_known = true;
                size_t expect = has_index ? 5 : 4;
                if (fields.size() != expect)
                    fail("bad CSV header on line " +
                         std::to_string(line_no));
                continue;
            }
            if (fields.size() == 5)
                has_index = true;
            else if (fields.size() != 4)
                fail("CSV row needs 4 or 5 fields on line " +
                     std::to_string(line_no));
            shape_known = true;
        }
        size_t expect = has_index ? 5 : 4;
        if (fields.size() != expect)
            fail("CSV row has " + std::to_string(fields.size()) +
                 " fields, expected " + std::to_string(expect) +
                 " on line " + std::to_string(line_no));
        IndexedRecord row;
        row.arrival = rows.size();
        size_t f = 0;
        if (has_index)
            row.index = parseAddress(fields[f++], line_no);
        else
            row.index = rows.size();
        if (!parseKind(fields[f], row.rec.kind))
            fail("unknown kind '" + fields[f] + "' on line " +
                 std::to_string(line_no));
        ++f;
        row.rec.pc = parseAddress(fields[f++], line_no);
        row.rec.target = parseAddress(fields[f++], line_no);
        if (!parseTaken(fields[f], row.rec.taken))
            fail("bad outcome '" + fields[f] + "' on line " +
                 std::to_string(line_no));
        normalizeRecord(row.rec, report);
        rows.push_back(row);
    }
    (void)saw_header;

    // Normalization: restore program order by index. Equal indices are
    // ambiguous (two records claim the same position) — hard error.
    bool sorted = std::is_sorted(rows.begin(), rows.end(),
                                 [](const IndexedRecord &a,
                                    const IndexedRecord &b) {
                                     return a.index < b.index;
                                 });
    if (!sorted) {
        std::stable_sort(rows.begin(), rows.end(),
                         [](const IndexedRecord &a, const IndexedRecord &b) {
                             return a.index < b.index;
                         });
        for (size_t i = 0; i < rows.size(); ++i)
            if (rows[i].arrival != i)
                ++report.reordered;
        report.warnings.push_back(
            "out-of-order rows sorted back into index order");
    }
    for (size_t i = 1; i < rows.size(); ++i)
        if (rows[i].index == rows[i - 1].index)
            fail("duplicate index " + std::to_string(rows[i].index));

    Trace trace;
    trace.reserve(rows.size());
    for (const IndexedRecord &row : rows)
        trace.append(row.rec);
    return trace;
}

Trace
ingestCbp(std::istream &is, IngestReport &report)
{
    std::string bytes((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
    if (bytes.size() < kCbpHeaderBytes)
        fail("truncated CBP header (" + std::to_string(bytes.size()) +
             " bytes)");
    const auto *p = reinterpret_cast<const unsigned char *>(bytes.data());
    if (std::memcmp(p, kCbpMagic, sizeof(kCbpMagic)) != 0)
        fail("bad CBP magic");
    uint32_t version = readLe32(p + 8);
    if (version != kCbpVersion)
        fail("unsupported CBP version " + std::to_string(version));
    uint32_t flags = readLe32(p + 12);
    if (flags != 0)
        fail("unsupported CBP flags " + std::to_string(flags));
    uint64_t count = readLe64(p + 16);
    uint64_t payload = bytes.size() - kCbpHeaderBytes;
    // The count cross-check is also the endianness tripwire: a
    // byte-swapped (big-endian) count of any plausible trace claims
    // more records than the file could hold.
    if (count * kCbpRecordBytes != payload)
        fail("record count " + std::to_string(count) + " needs " +
             std::to_string(count * kCbpRecordBytes) +
             " payload bytes, file has " + std::to_string(payload) +
             " (truncated, or a byte-swapped/corrupt header)");

    Trace trace;
    trace.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
        const unsigned char *r =
            p + kCbpHeaderBytes + i * kCbpRecordBytes;
        BranchRecord rec;
        rec.pc = readLe64(r);
        rec.target = readLe64(r + 8);
        uint8_t type = r[16];
        switch (type) {
          case 0: rec.kind = BranchKind::Conditional; break;
          case 1: rec.kind = BranchKind::Jump; break;
          case 2: rec.kind = BranchKind::Jump; break; // indirect jump
          case 3: rec.kind = BranchKind::Call; break;
          case 4: rec.kind = BranchKind::Call; break; // indirect call
          case 5: rec.kind = BranchKind::Return; break;
          default:
            fail("unknown CBP branch type " + std::to_string(type) +
                 " in record " + std::to_string(i));
        }
        if (r[17] > 1)
            fail("bad taken byte in record " + std::to_string(i));
        rec.taken = r[17] != 0;
        normalizeRecord(rec, report);
        trace.append(rec);
    }
    return trace;
}

/** Decide the format from content: CBP magic, else CSV when the first
 * non-comment line has a comma, else text. */
IngestFormat
sniffFormat(std::istream &is)
{
    char head[8] = {};
    is.read(head, sizeof(head));
    size_t got = static_cast<size_t>(is.gcount());
    is.clear();
    is.seekg(0);
    if (got == sizeof(head) &&
        std::memcmp(head, kCbpMagic, sizeof(kCbpMagic)) == 0)
        return IngestFormat::Cbp;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        is.clear();
        is.seekg(0);
        return line.find(',') != std::string::npos ? IngestFormat::Csv
                                                   : IngestFormat::Text;
    }
    is.clear();
    is.seekg(0);
    return IngestFormat::Text;
}

} // namespace

uint64_t
parseAddress(const std::string &field, size_t line_no)
{
    // stoull would wrap a sign and stop at trailing junk; an address
    // is the whole field and never negative.
    size_t consumed = 0;
    uint64_t value = 0;
    bool ok = field.find('-') == std::string::npos;
    if (ok) {
        try {
            value = std::stoull(field, &consumed, 0);
        } catch (const std::exception &) {
            ok = false;
        }
    }
    if (!ok || consumed != field.size())
        throw std::runtime_error("copra trace: bad address '" + field +
                                 "' on line " + std::to_string(line_no));
    return value;
}

IngestFormat
parseIngestFormat(const std::string &name)
{
    if (name == "auto")
        return IngestFormat::Auto;
    if (name == "text")
        return IngestFormat::Text;
    if (name == "csv")
        return IngestFormat::Csv;
    if (name == "cbp")
        return IngestFormat::Cbp;
    fail("unknown format '" + name + "' (auto/text/csv/cbp)");
}

const char *
ingestFormatName(IngestFormat format)
{
    switch (format) {
      case IngestFormat::Auto: return "auto";
      case IngestFormat::Text: return "text";
      case IngestFormat::Csv:  return "csv";
      case IngestFormat::Cbp:  return "cbp";
    }
    return "unknown";
}

Trace
ingestStream(std::istream &is, const IngestOptions &options,
             IngestReport &report)
{
    report = IngestReport{};
    IngestFormat format = options.format == IngestFormat::Auto
        ? sniffFormat(is)
        : options.format;
    report.format = format;
    Trace trace;
    switch (format) {
      case IngestFormat::Text:
        trace = ingestText(is, report);
        break;
      case IngestFormat::Csv:
        trace = ingestCsv(is, report);
        break;
      case IngestFormat::Cbp:
        trace = ingestCbp(is, report);
        break;
      case IngestFormat::Auto:
        fail("format sniffing failed"); // unreachable
    }
    if (!options.name.empty())
        trace.setName(options.name);
    if (options.hasSeed)
        trace.setSeed(options.seed);
    report.records = trace.size();
    report.conditionals = trace.conditionalCount();
    if (report.conditionals == 0)
        report.warnings.push_back(
            "trace has no conditional branches; predictors have "
            "nothing to predict");
    return trace;
}

Trace
ingestFile(const std::string &path, const IngestOptions &options,
           IngestReport &report)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fail("cannot open '" + path + "'");
    Trace trace = ingestStream(in, options, report);
    if (trace.name().empty()) {
        // Neither the source's `# name` directive nor a caller override
        // named the trace: fall back to the filename stem.
        size_t slash = path.find_last_of('/');
        std::string stem =
            slash == std::string::npos ? path : path.substr(slash + 1);
        size_t dot = stem.find_last_of('.');
        if (dot != std::string::npos && dot > 0)
            stem = stem.substr(0, dot);
        trace.setName(stem);
    }
    return trace;
}

} // namespace copra::trace
