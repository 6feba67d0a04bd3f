#include "core/characterize.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "predictor/two_level.hpp"
#include "sim/driver.hpp"
#include "trace/trace_stats.hpp"
#include "workload/frontier.hpp"
#include "workload/profiles.hpp"

namespace copra::core {

namespace {

/** Binary entropy of counts (@p taken of @p total), in bits. */
double
binaryEntropyBits(uint64_t taken, uint64_t total)
{
    if (total == 0 || taken == 0 || taken == total)
        return 0.0;
    double p = static_cast<double>(taken) / static_cast<double>(total);
    return -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
}

/**
 * Execution-weighted average of per-context binary entropies. Contexts
 * arrive as an unordered map; contributions are summed in key order so
 * the result is bit-stable across platforms and library versions.
 */
double
contextEntropyBits(
    const std::unordered_map<uint64_t, std::array<uint64_t, 2>> &contexts,
    uint64_t total)
{
    if (total == 0)
        return 0.0;
    std::vector<std::pair<uint64_t, std::array<uint64_t, 2>>> sorted(
        contexts.begin(), contexts.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    double bits = 0.0;
    for (const auto &[key, counts] : sorted) {
        uint64_t n = counts[0] + counts[1];
        bits += static_cast<double>(n) / static_cast<double>(total) *
            binaryEntropyBits(counts[1], n);
    }
    return bits;
}

} // namespace

double
WorkloadFingerprint::entropyBits() const
{
    return curve.empty() ? 0.0 : curve.front().globalBits;
}

double
WorkloadFingerprint::globalHistoryGainBits() const
{
    if (curve.empty())
        return 0.0;
    double deepest = curve.front().globalBits;
    for (const HistoryEntropyPoint &point : curve)
        deepest = std::min(deepest, point.globalBits);
    return entropyBits() - deepest;
}

double
WorkloadFingerprint::localHistoryGainBits() const
{
    if (curve.empty())
        return 0.0;
    double deepest = curve.front().localBits;
    for (const HistoryEntropyPoint &point : curve)
        deepest = std::min(deepest, point.localBits);
    return entropyBits() - deepest;
}

double
globalConditionedEntropyBits(const trace::Trace &trace, unsigned depth)
{
    const trace::SoABlocks &soa = trace.soa();
    const uint8_t *kind = soa.kind();
    const uint8_t *taken = soa.taken();
    uint64_t mask = depth >= 64 ? ~uint64_t(0)
                                : (uint64_t(1) << depth) - 1;
    // depth <= 20 keeps the dense table L2-resident; the fingerprint
    // ladder tops out at 16.
    std::vector<std::array<uint64_t, 2>> counts(size_t(1) << depth);
    uint64_t history = 0;
    uint64_t total = 0;
    for (size_t i = 0; i < soa.size(); ++i) {
        if (kind[i] != 0)
            continue;
        ++counts[history & mask][taken[i]];
        history = (history << 1) | taken[i];
        ++total;
    }
    if (total == 0)
        return 0.0;
    double bits = 0.0;
    for (const auto &c : counts) {
        uint64_t n = c[0] + c[1];
        if (n == 0)
            continue;
        bits += static_cast<double>(n) / static_cast<double>(total) *
            binaryEntropyBits(c[1], n);
    }
    return bits;
}

double
localConditionedEntropyBits(const trace::Trace &trace, unsigned depth)
{
    const trace::SoABlocks &soa = trace.soa();
    const uint8_t *kind = soa.kind();
    const uint8_t *taken = soa.taken();
    const uint32_t *static_index = soa.staticIndex();
    uint64_t mask = (uint64_t(1) << depth) - 1;
    std::vector<uint64_t> histories(soa.staticCount(), 0);
    std::unordered_map<uint64_t, std::array<uint64_t, 2>> contexts;
    uint64_t total = 0;
    for (size_t i = 0; i < soa.size(); ++i) {
        if (kind[i] != 0)
            continue;
        uint32_t sidx = static_index[i];
        uint64_t key = (uint64_t(sidx) << depth) | (histories[sidx] & mask);
        ++contexts[key][taken[i]];
        histories[sidx] = (histories[sidx] << 1) | taken[i];
        ++total;
    }
    return contextEntropyBits(contexts, total);
}

std::string
workloadFamily(const std::string &name)
{
    const auto &paper = workload::benchmarkNames();
    if (std::find(paper.begin(), paper.end(), name) != paper.end())
        return "paper";
    if (workload::isFrontierWorkload(name))
        return "frontier";
    return "foreign";
}

WorkloadFingerprint
characterizeTrace(const trace::Trace &trace,
                  const CharacterizeOptions &options)
{
    WorkloadFingerprint fp;
    fp.name = trace.name();
    fp.family = workloadFamily(trace.name());
    fp.seed = trace.seed();
    fp.records = trace.size();
    fp.conditionals = trace.conditionalCount();

    trace::TraceStats stats(trace);
    fp.staticBranches = stats.staticBranches();
    fp.takenRate = stats.dynamicBranches()
        ? static_cast<double>(stats.dynamicTaken()) /
            static_cast<double>(stats.dynamicBranches())
        : 0.0;
    fp.biasedFraction99 = stats.dynamicFractionWithBiasAbove(0.99);

    fp.curve.reserve(options.depths.size());
    for (unsigned depth : options.depths) {
        HistoryEntropyPoint point;
        point.depth = depth;
        point.globalBits = globalConditionedEntropyBits(trace, depth);
        point.localBits = localConditionedEntropyBits(trace, depth);
        fp.curve.push_back(point);
    }

    fp.gshareAccuracyPercent = std::nan("");
    if (options.withPredictor && fp.conditionals > 0) {
        // BenchmarkExperiment::gshareLedger's pass, run over the
        // caller's trace in place rather than over a copy.
        predictor::TwoLevel gshare(
            predictor::TwoLevelConfig::gshare(options.config.gshareHistory));
        sim::Ledger ledger;
        sim::run(trace, gshare, &ledger);
        fp.gshareAccuracyPercent = ledger.accuracyPercent();
        H2pReport h2p = identifyH2p(ledger, options.h2p);
        fp.h2pBranches = h2p.branches.size();
        fp.h2pStaticFraction = h2p.staticFraction();
        fp.h2pMispredictFraction = h2p.mispredictFraction();
    }
    return fp;
}

obs::Json
fingerprintToJson(const WorkloadFingerprint &fp)
{
    auto number = [](double v) {
        return std::isnan(v) ? obs::Json::makeNull()
                             : obs::Json::makeNumber(v);
    };
    obs::Json out = obs::Json::makeObject();
    out.set("name", obs::Json::makeString(fp.name));
    out.set("family", obs::Json::makeString(fp.family));
    out.set("seed", obs::Json::makeNumber(double(fp.seed)));
    out.set("records", obs::Json::makeNumber(double(fp.records)));
    out.set("conditionals",
            obs::Json::makeNumber(double(fp.conditionals)));
    out.set("static_branches",
            obs::Json::makeNumber(double(fp.staticBranches)));
    out.set("taken_rate", number(fp.takenRate));
    out.set("biased_fraction_99", number(fp.biasedFraction99));
    obs::Json curve = obs::Json::makeArray();
    for (const HistoryEntropyPoint &point : fp.curve) {
        obs::Json entry = obs::Json::makeObject();
        entry.set("depth", obs::Json::makeNumber(double(point.depth)));
        entry.set("global_bits", number(point.globalBits));
        entry.set("local_bits", number(point.localBits));
        curve.push(std::move(entry));
    }
    out.set("history_entropy_bits", std::move(curve));
    out.set("global_history_gain_bits", number(fp.globalHistoryGainBits()));
    out.set("local_history_gain_bits", number(fp.localHistoryGainBits()));
    out.set("gshare_accuracy_percent", number(fp.gshareAccuracyPercent));
    out.set("h2p_branches", obs::Json::makeNumber(double(fp.h2pBranches)));
    out.set("h2p_static_fraction", number(fp.h2pStaticFraction));
    out.set("h2p_mispredict_fraction", number(fp.h2pMispredictFraction));
    return out;
}

obs::Json
fingerprintsToJson(const std::vector<WorkloadFingerprint> &fps)
{
    obs::Json out = obs::Json::makeObject();
    out.set("schema_version", obs::Json::makeNumber(1));
    out.set("schema",
            obs::Json::makeString("docs/schema/fingerprint.schema.json"));
    obs::Json list = obs::Json::makeArray();
    for (const WorkloadFingerprint &fp : fps)
        list.push(fingerprintToJson(fp));
    out.set("fingerprints", std::move(list));
    return out;
}

std::string
renderFingerprintTable(const std::vector<WorkloadFingerprint> &fps)
{
    std::string out;
    out += "| workload | family | static | taken | >99% biased "
           "| H(0) | H(4) g/l | H(16) g/l | gshare % | H2P static "
           "| H2P misp |\n";
    out += "|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n";
    auto point = [](const WorkloadFingerprint &fp,
                    unsigned depth) -> const HistoryEntropyPoint * {
        for (const HistoryEntropyPoint &p : fp.curve)
            if (p.depth == depth)
                return &p;
        return nullptr;
    };
    for (const WorkloadFingerprint &fp : fps) {
        char row[512];
        const HistoryEntropyPoint *h4 = point(fp, 4);
        const HistoryEntropyPoint *h16 = point(fp, 16);
        char gshare[32];
        if (std::isnan(fp.gshareAccuracyPercent))
            std::snprintf(gshare, sizeof(gshare), "n/a");
        else
            std::snprintf(gshare, sizeof(gshare), "%.2f",
                          fp.gshareAccuracyPercent);
        std::snprintf(
            row, sizeof(row),
            "| %s | %s | %llu | %.3f | %.3f | %.3f | %.3f/%.3f "
            "| %.3f/%.3f | %s | %.3f | %.3f |\n",
            fp.name.c_str(), fp.family.c_str(),
            static_cast<unsigned long long>(fp.staticBranches),
            fp.takenRate, fp.biasedFraction99, fp.entropyBits(),
            h4 ? h4->globalBits : 0.0, h4 ? h4->localBits : 0.0,
            h16 ? h16->globalBits : 0.0, h16 ? h16->localBits : 0.0,
            gshare, fp.h2pStaticFraction, fp.h2pMispredictFraction);
        out += row;
    }
    return out;
}

std::string
renderWorkloadsDoc(const std::vector<WorkloadFingerprint> &fps,
                   uint64_t branches)
{
    std::string out;
    out +=
        "# Workloads\n"
        "\n"
        "Generated by `copra_characterize --doc-workloads`; the\n"
        "`workloads_doc_drift` ctest gate fails when this file drifts\n"
        "from the workload registry or the fingerprint pipeline.\n"
        "Regenerate with:\n"
        "\n"
        "    build/tools/copra_characterize --doc-workloads > "
        "docs/WORKLOADS.md\n"
        "\n"
        "copra analyses run over `copra::trace::Trace` objects. Three "
        "ways to get\none:\n"
        "\n"
        "## 1. The calibrated suite\n"
        "\n"
        "```cpp\n"
        "auto trace = copra::workload::makeBenchmarkTrace(\"gcc\", "
        "2'000'000, /*seed=*/0);\n"
        "```\n"
        "\n"
        "Eight profiles (`compress`…`xlisp`) calibrated against the "
        "paper's\naccuracy fingerprint (see `src/workload/profiles.cc` "
        "for every knob and\nthe calibration notes), plus the three "
        "frontier families of\n`src/workload/frontier.hpp` covering "
        "behaviours the paper never\nmeasured:\n"
        "\n"
        "- **`interp`** — an interpreter/VM dispatch loop: a small "
        "Markov-driven\n  bytecode program whose indirect dispatch is "
        "lowered to else-if\n  compare chains, so the opcode sequence "
        "becomes a correlated run of\n  conditional outcomes (plus "
        "biased handler guards and operand-driven\n  micro-loops).\n"
        "- **`datadep`** — branches over a generated value stream "
        "that alternates\n  between sorted runs, bounded random walks, "
        "and uncorrelated noise:\n  the same static branches flip "
        "between trivially predictable and\n  irreducibly random as the "
        "data regime changes.\n"
        "- **`nestloop`** — long-period nested-loop shapes: "
        "triangular nests with\n  trip counts growing past every "
        "tracked history window, co-prime\n  period-48/period-37 "
        "counters (combined period 1776), and a\n  period-127 pattern "
        "branch.\n"
        "\n"
        "Seed 0 selects each workload's canonical seed, so results are\n"
        "reproducible across machines; any other seed re-executes the "
        "same\nprogram with fresh data. `makeBenchmarkTrace()` "
        "dispatches every suite\nname, frontier families included.\n"
        "\n"
        "`makeBenchmarkTrace()` always generates; the experiment "
        "engine\n(`core::BenchmarkExperiment`) additionally memoizes "
        "generated traces\non disk through `trace::TraceCache` "
        "(`$COPRA_CACHE_DIR`, default\n`.copra-cache/`), keyed by "
        "(benchmark, branches, seed, trace format\nversion), so "
        "re-running a bench skips generation entirely. Cache\n"
        "behaviour is observable as the `trace.cache.*` telemetry "
        "instruments\n(docs/METRICS.md) when metrics are enabled, and "
        "`--no-trace-cache`\nbypasses it.\n"
        "\n"
        "## 2. A custom profile\n"
        "\n"
        "A `BenchmarkProfile` (`src/workload/builder.hpp`) describes a "
        "workload\nstatistically; `buildProgram()` expands it "
        "deterministically into a\nsynthetic program whose execution "
        "emits the trace:\n"
        "\n"
        "```cpp\n"
        "copra::workload::BenchmarkProfile p;\n"
        "p.name = \"mydb\";\n"
        "p.buildSeed = 42;\n"
        "p.numVars = 120;                 // condition pool\n"
        "p.fracVarStrongBias = 0.7;       // mostly assertion-like "
        "checks\n"
        "p.targetStaticBranches = 3000;\n"
        "p.wChain = 2.0;                  // else-if dispatch chains\n"
        "p.chainResampleProb = 0.5;       // fresh data per chain "
        "visit\n"
        "p.tripLo = 4; p.tripHi = 12;     // loop trip counts\n"
        "auto program = copra::workload::buildProgram(p);\n"
        "auto trace = program.run(\"mydb\", 1'000'000, /*seed=*/7);\n"
        "```\n"
        "\n"
        "Knob guidance, learned during calibration (DESIGN.md §2):\n"
        "\n"
        "- **Bias bands** (`strongBias*`, `moderateBias*`) set the "
        "static\n  predictability floor. These are *level* knobs: "
        "changing them never\n  reshuffles the generated program "
        "structure, so you can tune accuracy\n  without changing the "
        "branch population (the builder consumes a fixed\n  number of "
        "RNG draws per decision).\n"
        "- **`chainResampleProb` + `chainFollowProb`** control "
        "global-vs-local\n  predictability: freshly resampled chain "
        "variables make branches\n  unpredictable from their own "
        "history while staying correlated inside\n  the window — "
        "this is what makes gshare beat PAs.\n"
        "- **Loop trips vs history lengths**: fixed trips in `(h_PAs, "
        "h_gshare]`\n  (e.g. 13–15 against PAs h=12 / gshare h=16) "
        "are predictable globally\n  but not per-address; "
        "uniform-random trips hurt everyone equally.\n"
        "- **`callSkew`** concentrates execution in few hot functions "
        "(Zipf-like),\n  which controls table pressure realism.\n"
        "- **Beware power-of-two layouts**: function bases are "
        "deliberately\n  spaced by a non-power-of-two stride; aligned "
        "layouts alias every\n  same-offset branch across functions in "
        "every table predictor.\n"
        "\n"
        "## 3. External traces\n"
        "\n"
        "`copra_ingest` validates and normalizes foreign traces (text, "
        "CSV, or\nCBP-style binary — grammars and failure semantics "
        "in docs/TRACES.md)\ninto cache-v2 files, recording provenance "
        "in the run manifest:\n"
        "\n"
        "```\n"
        "build/tools/copra_ingest --in theirs.csv --out mine.trc\n"
        "build/tools/copra_characterize --trace mine.trc\n"
        "```\n"
        "\n"
        "The native binary and text formats also round-trip through\n"
        "`src/trace/trace_io.hpp` directly; load with `loadBinary()` /\n"
        "`readText()` and pass the trace to `core::BenchmarkExperiment`"
        "\n(see `examples/paper_report.cpp --load`).\n"
        "\n"
        "## Exactly-known patterns for tests\n"
        "\n"
        "`src/workload/patterns.hpp` emits canonical single-behaviour "
        "traces\n(for-type and while-type loops, fixed periodic and "
        "block patterns,\nbiased coins, the paper's Fig. 1a and Fig. 2 "
        "correlation shapes) plus\n`interleave()` to combine them — "
        "the building blocks of most unit tests\nin `tests/`.\n"
        "\n"
        "## Fingerprints\n"
        "\n";
    char budget[512];
    std::snprintf(
        budget, sizeof(budget),
        "Computed by `copra_characterize` over the full suite at the\n"
        "pinned doc budget of %llu conditional branches, seed 0.\n"
        "`H(k)` is the conditional-outcome entropy (bits/branch) under "
        "a\nk-bit global (g) or per-address (l) outcome history; "
        "`gshare %%` is\nthe reference gshare(h=16) accuracy and the "
        "H2P columns are the\nLin-Tarsa hard-branch set it leaves "
        "behind (static fraction /\nmisprediction share).\n\n",
        static_cast<unsigned long long>(branches));
    out += budget;
    out += renderFingerprintTable(fps);
    return out;
}

} // namespace copra::core
