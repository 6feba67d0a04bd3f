/**
 * @file
 * Foreign-trace ingestion: validate and normalize branch traces from
 * outside the repo into the native in-memory Trace (and from there into
 * cache-v3 files via trace_io). Three source formats are supported; the
 * grammars and failure semantics are documented in docs/TRACES.md.
 *
 *  - Text: the versioned "copra branch-trace" line format. A superset
 *    of what writeText() emits — `# copra-branch-trace v1` declares the
 *    grammar version, `# name` / `# seed` directives carry metadata,
 *    and each record line is `<kind> <pc> <target> <T|N>` with hex or
 *    decimal addresses.
 *
 *  - CSV: `kind,pc,target,taken` rows with an optional header row and
 *    an optional leading `index` column. Records arriving out of order
 *    (by index) are sorted back into program order during
 *    normalization; duplicate indices are a hard error.
 *
 *  - CBP: a championship-style packed binary — 8-byte magic
 *    "CBPTRACE", u32 version (= 1), u32 flags (must be 0), u64 record
 *    count, then one 18-byte record per branch: u64 pc, u64 target,
 *    u8 type, u8 taken (little-endian). Types map onto BranchKind with
 *    indirect jumps/calls folded into Jump/Call.
 *
 * Normalization is where foreign quirks are absorbed: non-conditional
 * records with taken = 0 are coerced to taken (our convention: an
 * executed transfer transferred), CSV reordering is applied, and every
 * coercion is counted in the IngestReport so provenance lands in the
 * run manifest. Validation failures (bad magic, malformed lines,
 * impossible counts, unknown kinds) throw std::runtime_error — an
 * ingested trace is either fully valid or rejected, never silently
 * truncated.
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace copra::trace {

/** Source format of an ingested trace. */
enum class IngestFormat : uint8_t
{
    Auto = 0, //!< sniff: CBP magic, else CSV when the first record
              //!< line contains a comma, else text
    Text,     //!< copra branch-trace text grammar
    Csv,      //!< comma-separated records, optional header/index
    Cbp,      //!< championship-style packed binary
};

/**
 * Parse a pc/target field of a text or CSV trace line: 0x-prefixed hex
 * or plain decimal, the whole field, no sign.
 *
 * @throws std::runtime_error naming the field and @p line_no otherwise.
 */
uint64_t parseAddress(const std::string &field, size_t line_no);

/** Parse a format name (auto/text/csv/cbp); throws on unknown names. */
IngestFormat parseIngestFormat(const std::string &name);

/** Human-readable format name. */
const char *ingestFormatName(IngestFormat format);

/** Knobs for one ingestion run. */
struct IngestOptions
{
    IngestFormat format = IngestFormat::Auto;
    /** Override the trace name ("" keeps the source's `# name` or the
     * input filename stem). */
    std::string name;
    /** Override the recorded seed (recorded verbatim; foreign traces
     * have no generator seed of their own). */
    uint64_t seed = 0;
    bool hasSeed = false;
};

/** What one ingestion run saw and did — recorded for provenance. */
struct IngestReport
{
    IngestFormat format = IngestFormat::Auto; //!< format actually used
    uint64_t records = 0;         //!< records accepted
    uint64_t conditionals = 0;    //!< conditional records among them
    uint64_t normalizedTaken = 0; //!< non-conditionals coerced to taken
    uint64_t reordered = 0;       //!< CSV rows moved by index sorting
    uint64_t commentLines = 0;    //!< comment/blank lines skipped
    std::vector<std::string> warnings;
};

/**
 * Ingest a foreign trace from @p is.
 *
 * @param is Input stream (binary-capable for CBP/auto).
 * @param options Format selection and metadata overrides.
 * @param report Filled with acceptance counts and warnings (required).
 * @throws std::runtime_error on any validation failure.
 */
Trace ingestStream(std::istream &is, const IngestOptions &options,
                   IngestReport &report);

/**
 * Ingest the file at @p path (Auto format sniffs content, not the file
 * extension; the filename stem becomes the trace name unless the source
 * or @p options name it).
 */
Trace ingestFile(const std::string &path, const IngestOptions &options,
                 IngestReport &report);

} // namespace copra::trace
