/**
 * @file
 * Ingestion gates: end-to-end verification of the foreign-trace path
 * (trace/ingest.hpp → trace_io cache-v3 → SoA replay) over a committed
 * reference sample plus fuzzed corruption.
 *
 * The gates prove, on every run:
 *
 *  - reference-ingest: the committed sample foreign trace parses, has
 *    conditionals, and normalization is idempotent.
 *  - stream-mmap-identity: the ingested trace, emitted as a cache-v3
 *    file, loads byte-identically through loadBinary (stream) and
 *    loadBinaryMapped (mmap) — every column, the static index, the
 *    static pcs, the conditional segments, the name, and the seed.
 *    This is the "SoA replay is byte-identical between the stream and
 *    mmap paths" contract the simulator's determinism rests on.
 *  - round-trip: records out of the v3 file equal the ingested records
 *    one-for-one.
 *  - cross-format: re-rendering the sample as native text and as CSV
 *    (with an explicit index column) and re-ingesting yields the same
 *    record sequence — the three grammars describe one trace.
 *  - corruption-fuzz: seed-ranged corrupted copies of the v3 bytes go
 *    through both loaders (the mapped one from a temp file), which
 *    must both reject them or both load identical traces that are
 *    structurally valid from first principles (static index, static
 *    pcs and segments rebuilt from the pc and kind columns). Corrupted
 *    copies of the text rendering must throw or ingest validly. Never
 *    crash, never silently truncate past validation.
 *  - forgery: each re-sealed forgery of check/fuzz.hpp (valid
 *    checksum, one broken invariant) is rejected by both loaders.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace copra::check {

/** Configuration of an ingestion-gate run. */
struct IngestGateOptions
{
    std::string samplePath;       //!< committed foreign sample trace
    uint64_t corruptionSeeds = 64; //!< fuzzed corruptions per surface
    uint64_t seedBase = 1;        //!< first corruption seed
};

/** One gate violation. */
struct IngestGateFailure
{
    std::string gate; //!< "reference-ingest", "stream-mmap-identity",
                      //!< "round-trip", "cross-format",
                      //!< "corruption-fuzz", "forgery"
    uint64_t seed = 0; //!< corruption seed (0 for deterministic gates)
    std::string detail;
};

/** Aggregate outcome of a run. */
struct IngestGateReport
{
    uint64_t gatesRun = 0; //!< individual checks performed
    std::vector<IngestGateFailure> failures;
    bool ok() const { return failures.empty(); }
};

/** Run every ingestion gate over the sample of @p options. */
IngestGateReport runIngestGates(const IngestGateOptions &options);

/** Human-readable report (one line per failure). */
std::string formatIngestGateReport(const IngestGateReport &report);

} // namespace copra::check
