/**
 * @file
 * copra_ingest: validate and normalize a foreign branch trace into a
 * native cache-v4 binary trace file.
 *
 * The ingestion frontend (src/trace/ingest.hpp) accepts the versioned
 * copra text grammar, CSV rows, or a CBP-championship-style packed
 * binary (formats documented in docs/TRACES.md), normalizes foreign
 * quirks (outcome conventions, CSV row order), and the tool emits the
 * result with trace::saveBinary — the same v4 layout the trace cache
 * mmaps. It prints one summary line for the file it wrote: records,
 * conditionals, static pcs (distinct pcs of every kind), sites, bytes
 * and bytes per conditional. The site count (distinct pc, target and kind triples)
 * is the one input that can grow a v4 file beyond ~5 bytes per
 * record, so it is shown for every foreign trace. Provenance (record
 * counts, normalization counts, warnings) is recorded in the run
 * manifest via --metrics-out.
 *
 * Examples:
 *   copra_ingest --in theirs.trace --out mine.trc
 *   copra_ingest --in theirs.csv --format csv --name db2 --out db2.trc
 *   copra_ingest --in cbp.bin --validate       # parse + report only
 */

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "obs/instruments.hpp"
#include "obs/manifest.hpp"
#include "obs/registry.hpp"
#include "trace/ingest.hpp"
#include "trace/trace_io.hpp"
#include "util/cli.hpp"
#include "util/env.hpp"

using namespace copra;

int
main(int argc, char **argv)
{
    OptionParser parser(
        "validate and normalize a foreign branch trace into a native "
        "cache-v4 binary trace file (formats: docs/TRACES.md)");
    std::string in_path;
    parser.addString("in", &in_path, "input trace file (required)");
    std::string out_path;
    parser.addString("out", &out_path,
                     "output v4 binary trace path (empty with "
                     "--validate = parse only)");
    std::string format_name = "auto";
    parser.addString("format", &format_name,
                     "input format: auto, text, csv, or cbp");
    std::string name;
    parser.addString("name", &name,
                     "trace name override (default: source directive "
                     "or filename stem)");
    uint64_t seed = 0;
    parser.addUint("seed", &seed, "recorded seed override");
    bool validate = false;
    parser.addFlag("validate", &validate,
                   "parse and report without writing an output file");
    std::string metrics_out = util::envString("COPRA_METRICS_OUT", "");
    parser.addString("metrics-out", &metrics_out,
                     "write a run-manifest JSON here "
                     "($COPRA_METRICS_OUT; empty = off)");
    if (!parser.parse(argc, argv))
        return 0;
    if (in_path.empty()) {
        std::fprintf(stderr, "copra_ingest: --in is required\n");
        return 2;
    }
    if (out_path.empty() && !validate) {
        std::fprintf(stderr,
                     "copra_ingest: --out is required (or --validate "
                     "to parse only)\n");
        return 2;
    }
    obs::setEnabled(!metrics_out.empty());

    trace::IngestOptions options;
    options.name = name;
    options.seed = seed;
    options.hasSeed = seed != 0;
    trace::IngestReport report;
    trace::Trace trace;
    try {
        options.format = trace::parseIngestFormat(format_name);
        trace = trace::ingestFile(in_path, options, report);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "copra_ingest: %s\n", e.what());
        return 1;
    }

    for (const std::string &warning : report.warnings)
        std::fprintf(stderr, "copra_ingest: warning: %s\n",
                     warning.c_str());
    std::printf("ingested %s: format=%s records=%llu conditionals=%llu "
                "normalized=%llu reordered=%llu name=%s\n",
                in_path.c_str(), trace::ingestFormatName(report.format),
                static_cast<unsigned long long>(report.records),
                static_cast<unsigned long long>(report.conditionals),
                static_cast<unsigned long long>(report.normalizedTaken),
                static_cast<unsigned long long>(report.reordered),
                trace.name().c_str());

    if (!out_path.empty()) {
        try {
            trace::saveBinary(trace, out_path);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "copra_ingest: %s\n", e.what());
            return 1;
        }
        std::error_code ec;
        uint64_t bytes = std::filesystem::file_size(out_path, ec);
        if (ec)
            bytes = 0;
        uint64_t conditionals = trace.conditionalCount();
        std::printf("wrote %s (cache-v%u): records=%llu conditionals=%llu "
                    "static_pcs=%llu sites=%llu bytes=%llu "
                    "bytes_per_conditional=%.2f\n",
                    out_path.c_str(), trace::kTraceFormatVersion,
                    static_cast<unsigned long long>(trace.size()),
                    static_cast<unsigned long long>(conditionals),
                    static_cast<unsigned long long>(trace.soa().staticCount()),
                    static_cast<unsigned long long>(trace.soa().siteCount()),
                    static_cast<unsigned long long>(bytes),
                    conditionals ? static_cast<double>(bytes) /
                            static_cast<double>(conditionals)
                                 : 0.0);
    }

    obs::count(obs::ids().traceIngestRecords, report.records);
    obs::count(obs::ids().traceIngestConditionals, report.conditionals);
    obs::count(obs::ids().traceIngestNormalized, report.normalizedTaken);
    obs::count(obs::ids().traceIngestReordered, report.reordered);
    obs::count(obs::ids().traceIngestWarnings, report.warnings.size());
    obs::finishRun(obs::runInfo("copra_ingest", argc, argv, trace.seed(),
                                false),
                   metrics_out, false);
    return 0;
}
