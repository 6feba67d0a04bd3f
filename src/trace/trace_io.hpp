/**
 * @file
 * Trace serialization: a versioned binary format for bulk storage,
 * loaded by mapping the file (loadBinary), and a line-oriented text
 * writer for inspection (trace/ingest.hpp reads the text back).
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "trace/trace.hpp"

namespace copra::trace {

/**
 * Version of the binary trace format written by writeBinary. Bump on any
 * layout change; the on-disk trace cache keys its entries on this value,
 * so stale cache files are never misread. Only the current version is
 * read; any other version number is rejected as unsupported.
 */
inline constexpr uint32_t kTraceFormatVersion = 4;

/** Byte offsets of the cache-v4 header fields (all little-endian). */
namespace header_offset {
inline constexpr size_t kVersion = 8;      //!< u32 format version
inline constexpr size_t kNameLength = 12;  //!< u32 name bytes
inline constexpr size_t kSeed = 16;        //!< u64 workload seed
inline constexpr size_t kRecords = 24;     //!< u64 record count N
inline constexpr size_t kConditionals = 32; //!< u64 conditional count
inline constexpr size_t kSites = 40;       //!< u64 site count S
inline constexpr size_t kChecksum = 48;    //!< u64 image checksum
inline constexpr size_t kName = 56;        //!< name, zero-padded to 8
} // namespace header_offset

/**
 * Byte offsets of the sections of a cache-v4 image: two record
 * columns, then the site table as three columns. Every section starts
 * on an 8-byte boundary (the ones whose length is not a multiple of 8
 * are zero-padded), so a loader can view each column in place.
 */
struct ImageLayout
{
    size_t site = 0;       //!< N × u32 site id per record
    size_t taken = 0;      //!< N × u8 outcome (0 or 1)
    size_t sitePc = 0;     //!< S × u64 branch address, by site id
    size_t siteTarget = 0; //!< S × u64 taken-path target, by site id
    size_t siteKind = 0;   //!< S × u8 BranchKind (0..3), by site id
    size_t end = 0;        //!< total image bytes
};

/** Section offsets of an image with these header fields. */
ImageLayout imageLayout(uint32_t name_length, uint64_t records,
                        uint64_t sites);

/**
 * The checksum a cache-v4 image stores at header_offset::kChecksum:
 * FNV-1a folded over every little-endian 8-byte word of the image
 * except the checksum word itself — the other header fields, the name
 * and all five sections with their padding. @p bytes must be a
 * multiple of 8 and at least header_offset::kName.
 */
uint64_t imageChecksum(const unsigned char *image, size_t bytes);

/**
 * Write @p trace to @p os in the copra binary trace format (cache-v4):
 * the header and name, then the site and taken record columns and the
 * site pc, target and kind columns laid out as imageLayout() says. The
 * record columns are checksummed and written straight from the trace;
 * only the site table (a few thousand rows) is staged.
 *
 * @throws std::runtime_error when the name exceeds 64 KiB.
 */
void writeBinary(const Trace &trace, std::ostream &os);

/**
 * Write @p trace to the file at @p path in binary format. An existing
 * file is unlinked first, never rewritten in place, so traces mapped
 * from it stay valid.
 */
void saveBinary(const Trace &trace, const std::string &path);

/**
 * Load the cache-v4 trace at @p path, the one loader of that format,
 * by memory-mapping it read-only. The trace views its record columns
 * in the mapping, which it shares with its copies and releases with
 * the last of them: the load maps the file, checks the header against
 * the exact file size, verifies the checksum, decodes the site table,
 * verifies the records and derives the static ids and conditional
 * segments. No record column is copied. Replace a
 * mapped file by rename (as TraceCache and saveBinary do); truncating
 * it in place would fault the traces that view it.
 *
 * @throws std::runtime_error when the file cannot be opened or
 * mapped, on bad magic (also for any file too short to hold the
 * magic), unsupported version, a truncated header, an implausible
 * name length, a size that disagrees with the header, a checksum
 * mismatch, columns that fail verification (see SoABlocks::adopt), or
 * a stored conditional count that disagrees with the records.
 */
Trace loadBinary(const std::string &path);

/**
 * Write @p trace as text: a "# name <name>" / "# seed <seed>" header, then
 * one "<kind> <pc-hex> <target-hex> <T|N>" line per record. Read it back
 * with trace::ingestStream (trace/ingest.hpp), whose text grammar is a
 * superset of this one.
 */
void writeText(const Trace &trace, std::ostream &os);

} // namespace copra::trace
