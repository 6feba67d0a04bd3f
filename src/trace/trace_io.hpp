/**
 * @file
 * Trace serialization: a versioned binary format for bulk storage and a
 * line-oriented text format for inspection and hand-written test inputs.
 */

#pragma once

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
inline constexpr uint32_t kTraceFormatVersion = 2;

/**
 * Write @p trace to @p os in the copra binary trace format (v2).
 *
 * v2 is column-major so loaders can ingest whole fields at once:
 * 8-byte magic "COPRATRC", u32 version, u32 name length, u64 seed,
 * u64 record count, u64 conditional count, u64 payload checksum
 * (FNV-1a over the column bytes — the column layout has no per-record
 * structure to validate, so integrity is explicit), name bytes
 * zero-padded to an 8-byte boundary, then four contiguous columns —
 * pc (count × u64), target (count × u64), kind (count × u8), taken
 * (count × u8). All integers are little-endian.
 */
void writeBinary(const Trace &trace, std::ostream &os);

/**
 * Read a trace in the copra binary format (v2).
 *
 * @throws std::runtime_error on bad magic, unsupported version, or
 * truncated input.
 */
Trace readBinary(std::istream &is);

/** Write @p trace to the file at @p path in binary format. */
void saveBinary(const Trace &trace, const std::string &path);

/** Load a binary-format trace from the file at @p path. */
Trace loadBinary(const std::string &path);

/**
 * Load a v2 binary trace by memory-mapping @p path: the header is
 * validated against the exact file size and the columns are copied
 * into the trace's column store with one bulk pass per column. The
 * mapping is transient (the file may be deleted afterwards).
 *
 * @throws std::runtime_error when the file cannot be mapped, is not a
 * v2 trace, or is truncated / inconsistent.
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
