/**
 * @file
 * Trace serialization: a versioned binary format for bulk storage and a
 * line-oriented text format for inspection and hand-written test inputs.
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
inline constexpr uint32_t kTraceFormatVersion = 3;

/** Byte offsets of the cache-v3 header fields (all little-endian). */
namespace header_offset {
inline constexpr size_t kVersion = 8;      //!< u32 format version
inline constexpr size_t kNameLength = 12;  //!< u32 name bytes
inline constexpr size_t kSeed = 16;        //!< u64 workload seed
inline constexpr size_t kRecords = 24;     //!< u64 record count N
inline constexpr size_t kConditionals = 32; //!< u64 conditional count
inline constexpr size_t kStaticPcs = 40;   //!< u64 static pc count S
inline constexpr size_t kChecksum = 48;    //!< u64 image checksum
inline constexpr size_t kName = 56;        //!< name, zero-padded to 8
} // namespace header_offset

/**
 * Byte offsets of the sections of a cache-v3 image. Every section
 * starts on an 8-byte boundary (the ones whose length is not a
 * multiple of 8 are zero-padded), so a loader can view each column in
 * place.
 */
struct ImageLayout
{
    size_t pc = 0;          //!< N × u64 branch addresses
    size_t target = 0;      //!< N × u64 taken-path targets
    size_t kind = 0;        //!< N × u8 BranchKind (0..3)
    size_t taken = 0;       //!< N × u8 outcome (0 or 1)
    size_t staticIndex = 0; //!< N × u32 dense static id per record
    size_t staticPcs = 0;   //!< S × u64 distinct pcs, by static id
    size_t end = 0;         //!< total image bytes
};

/** Section offsets of an image with these header fields. */
ImageLayout imageLayout(uint32_t name_length, uint64_t records,
                        uint64_t static_pcs);

/**
 * The checksum a cache-v3 image stores at header_offset::kChecksum:
 * FNV-1a folded over every little-endian 8-byte word of the image
 * except the checksum word itself — the other header fields, the name
 * and all six sections with their padding. @p bytes must be a
 * multiple of 8 and at least header_offset::kName.
 */
uint64_t imageChecksum(const unsigned char *image, size_t bytes);

/**
 * Write @p trace to @p os in the copra binary trace format (cache-v3):
 * the header and name, then the pc, target, kind, taken, static-index
 * and static-pc sections laid out as imageLayout() says. Each section
 * is checksummed and written straight from the trace's columns; no
 * staging copy is made.
 *
 * @throws std::runtime_error when the name exceeds 64 KiB.
 */
void writeBinary(const Trace &trace, std::ostream &os);

/**
 * Read a cache-v3 trace: the stream is read into one 8-aligned buffer
 * that the trace then views in place (the same adoption and checks as
 * loadBinaryMapped). @p is must be seekable, so the image size can be
 * checked before it is allocated.
 *
 * @throws std::runtime_error on bad magic, unsupported version, a size
 * that disagrees with the header, a checksum mismatch, or columns that
 * fail verification (see SoABlocks::adopt).
 */
Trace readBinary(std::istream &is);

/**
 * Write @p trace to the file at @p path in binary format. An existing
 * file is unlinked first, never rewritten in place, so traces mapped
 * from it stay valid.
 */
void saveBinary(const Trace &trace, const std::string &path);

/** Load a binary-format trace from the file at @p path (readBinary). */
Trace loadBinary(const std::string &path);

/**
 * Load a cache-v3 trace by memory-mapping @p path read-only. The trace
 * views its columns in the mapping, which it shares with its copies
 * and releases with the last of them: the load maps the file, checks
 * the header against the exact file size, verifies the checksum and
 * the stored static index, and derives the conditional segments. No
 * column is copied. Replace a mapped file by rename (as TraceCache
 * and saveBinary do); truncating it in place would fault the traces
 * that view it.
 *
 * @throws std::runtime_error when the file cannot be mapped or fails
 * any check readBinary makes.
 */
Trace loadBinaryMapped(const std::string &path);

/**
 * Write @p trace as text: a "# name <name>" / "# seed <seed>" header, then
 * one "<kind> <pc-hex> <target-hex> <T|N>" line per record.
 */
void writeText(const Trace &trace, std::ostream &os);

/**
 * Read a text-format trace. Blank lines and lines starting with '#'
 * (other than the recognized header directives) are ignored.
 *
 * @throws std::runtime_error on malformed lines.
 */
Trace readText(std::istream &is);

} // namespace copra::trace
