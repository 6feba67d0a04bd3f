/**
 * @file
 * Ingestion gates: end-to-end verification of the foreign-trace path
 * (trace/ingest.hpp → trace_io cache-v4 → SoA replay) over a committed
 * reference sample plus fuzzed corruption.
 *
 * The gates prove, on every run:
 *
 *  - reference-ingest: the committed sample foreign trace parses, has
 *    conditionals, and normalization is idempotent.
 *  - emit-load-identity: the ingested trace, emitted as a cache-v4
 *    file and loaded back (trace::loadBinary), is byte-identical to
 *    the ingested one — the site and taken columns, the site table
 *    with its static ids, the static pcs, the conditional segments,
 *    the name, and the seed.
 *  - round-trip: records out of the v4 file equal the ingested records
 *    one-for-one.
 *  - cross-format: re-rendering the sample as native text and as CSV
 *    (with an explicit index column) and re-ingesting yields the same
 *    record sequence — the three grammars describe one trace.
 *  - corruption-fuzz: seed-ranged corrupted copies of the v4 bytes,
 *    written to a temp file, must be rejected by the loader or load
 *    a trace that is structurally valid from first principles (site
 *    table, static ids, static pcs and segments rebuilt from the site
 *    rows and the site column). Corrupted copies of the text rendering must throw or
 *    ingest validly. Never crash, never silently truncate past
 *    validation.
 *  - forgery: each re-sealed forgery of check/fuzz.hpp (valid
 *    checksum, one broken invariant) is rejected by the loader.
 */

#pragma once

#include <cstdint>
#include <string>

#include "check/gate_report.hpp"

namespace copra::check {

/** Configuration of an ingestion-gate run. */
struct IngestGateOptions
{
    std::string samplePath;       //!< committed foreign sample trace
    uint64_t corruptionSeeds = 64; //!< fuzzed corruptions per surface
    uint64_t seedBase = 1;        //!< first corruption seed
};

/**
 * Run every ingestion gate over the sample of @p options. Failures
 * carry no subject, one of the gates "reference-ingest",
 * "emit-load-identity", "round-trip", "cross-format",
 * "corruption-fuzz" or "forgery", and the corruption seed (0 for the
 * deterministic gates); print with formatGateReport("ingest gates",
 * report).
 */
GateReport runIngestGates(const IngestGateOptions &options);

} // namespace copra::check
