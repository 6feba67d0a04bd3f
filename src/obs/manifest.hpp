/**
 * @file
 * Run manifests: the versioned JSON record one instrumented process
 * leaves behind (--metrics-out / COPRA_METRICS_OUT). A manifest
 * captures enough provenance to compare two runs honestly — git SHA,
 * build type and flags, thread count, seed, tool name and arguments —
 * plus the value of every registry instrument. The schema is
 * docs/schema/run_manifest.schema.json; kManifestSchemaVersion bumps
 * whenever a field changes meaning, and copra_report refuses to diff
 * across schema versions.
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "obs/json.hpp"
#include "obs/registry.hpp"

namespace copra::obs {

/** Manifest format version (docs/schema/run_manifest.schema.json). */
inline constexpr int kManifestSchemaVersion = 1;

/** Provenance of the run being recorded. */
struct RunInfo
{
    std::string tool;    //!< emitting binary, e.g. "table1_benchmarks"
    std::string args;    //!< reconstructed command line (may be empty)
    uint64_t seed = 0;   //!< workload seed
    unsigned threads = 0; //!< global pool size, or 0 when no pool ran
};

/**
 * Provenance of a run from its command line: @p tool, argv[1..argc)
 * joined by single spaces, @p seed, and the global pool's size when
 * the run used the pool (@p ran_pool) or 0 when it did not.
 */
RunInfo runInfo(const char *tool, int argc, char **argv, uint64_t seed,
                bool ran_pool);

/** Build @p snapshot (+ provenance) into a manifest JSON document. */
Json buildManifest(const RunInfo &info, const Snapshot &snapshot);

/** Read and parse a manifest file (throws std::runtime_error). */
Json loadManifest(const std::string &path);

/**
 * Render the non-zero instruments of @p manifest — as built by
 * buildManifest() or parsed back from a file — as an aligned table,
 * one row per instrument and no header. The one summary renderer:
 * --metrics-summary and `copra_report --summary` both print it.
 */
std::string renderSummary(const Json &manifest);

/**
 * The one way a binary ends an instrumented run: snapshot the registry
 * once, write the manifest to @p metrics_out (unless empty) and, when
 * @p summary, print the summary table to stderr so stdout stays
 * byte-identical. No-op when telemetry is off. A failed write warns
 * instead of aborting — telemetry must never take down a simulation
 * that already produced its results.
 */
void finishRun(const RunInfo &info, const std::string &metrics_out,
               bool summary);

} // namespace copra::obs
