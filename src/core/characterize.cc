#include "core/characterize.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>

#include "obs/instruments.hpp"
#include "obs/registry.hpp"
#include "predictor/factory.hpp"
#include "sim/driver.hpp"
#include "trace/branch_streams.hpp"
#include "trace/trace_stats.hpp"
#include "util/logging.hpp"
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
 * One context's share of an entropy: its weight (@p not_taken +
 * @p taken executions of @p total) times its binary entropy.
 */
double
contextBits(uint64_t not_taken, uint64_t taken, uint64_t total)
{
    uint64_t n = not_taken + taken;
    return static_cast<double>(n) / static_cast<double>(total) *
        binaryEntropyBits(taken, n);
}

/**
 * Dense (not-taken, taken) counts over the 2^depth contexts of one
 * depth, with its touched contexts marked in a two-level bitmap: a bit
 * per context and a bit per 64-context word. forEach() and drain()
 * visit the touched contexts in ascending order; drain() leaves the
 * table empty, so one table serves every branch in turn.
 */
class ContextTable
{
  public:
    explicit ContextTable(unsigned depth)
        : counts_(size_t(1) << depth), words_((counts_.size() + 63) / 64),
          summary_((words_.size() + 63) / 64)
    {
    }

    /** Count one execution of @p context with outcome @p taken. */
    void
    count(size_t context, bool taken)
    {
        std::array<uint64_t, 2> &c = counts_[context];
        if (c[0] + c[1] == 0)
            mark(context);
        ++c[taken];
    }

    /** Add the counts @p c into @p context. */
    void
    add(size_t context, const std::array<uint64_t, 2> &c)
    {
        std::array<uint64_t, 2> &into = counts_[context];
        if (into[0] + into[1] == 0)
            mark(context);
        into[0] += c[0];
        into[1] += c[1];
    }

    /** Call @p visit(context, counts) per touched context, ascending. */
    template <typename Visit>
    void
    forEach(Visit &&visit) const
    {
        for (size_t s = 0; s < summary_.size(); ++s) {
            for (uint64_t ws = summary_[s]; ws != 0; ws &= ws - 1) {
                const size_t w = s * 64 + std::countr_zero(ws);
                for (uint64_t bs = words_[w]; bs != 0; bs &= bs - 1) {
                    const size_t context = w * 64 + std::countr_zero(bs);
                    visit(context, counts_[context]);
                }
            }
        }
    }

    /** Call @p visit(counts) per touched context, ascending, and
     * clear each one and its marks. */
    template <typename Visit>
    void
    drain(Visit &&visit)
    {
        forEach([&](size_t context, const std::array<uint64_t, 2> &c) {
            visit(c);
            counts_[context] = {0, 0};
        });
        for (size_t s = 0; s < summary_.size(); ++s) {
            for (uint64_t ws = summary_[s]; ws != 0; ws &= ws - 1)
                words_[s * 64 + std::countr_zero(ws)] = 0;
            summary_[s] = 0;
        }
    }

  private:
    void
    mark(size_t context)
    {
        const size_t w = context / 64;
        words_[w] |= uint64_t(1) << (context % 64);
        summary_[w / 64] |= uint64_t(1) << (w % 64);
    }

    std::vector<std::array<uint64_t, 2>> counts_;
    std::vector<uint64_t> words_;   //!< bit per context: touched
    std::vector<uint64_t> summary_; //!< bit per words_ entry: non-zero
};

/** The deepest of @p depths (0 if none); fatal past kMaxEntropyDepth. */
unsigned
checkedDeepest(const std::vector<unsigned> &depths)
{
    unsigned deepest = 0;
    for (unsigned depth : depths) {
        fatalIf(depth > kMaxEntropyDepth,
                "entropy history depth must be at most 20");
        deepest = std::max(deepest, depth);
    }
    return deepest;
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

std::vector<double>
globalConditionedEntropyBits(const trace::Trace &trace,
                             const std::vector<unsigned> &depths)
{
    const trace::SoABlocks &soa = trace.soa();
    const uint8_t *taken = soa.taken();
    // Count contexts at the deepest depth only: the shallower contexts
    // are the same history register under a narrower mask.
    const unsigned deepest = checkedDeepest(depths);
    std::vector<std::array<uint64_t, 2>> counts(size_t(1) << deepest);
    const uint64_t mask = counts.size() - 1;
    uint64_t history = 0;
    for (const trace::SoABlocks::Segment &seg : soa.conditionalSegments()) {
        for (size_t i = seg.begin; i < seg.begin + seg.count; ++i) {
            ++counts[history & mask][taken[i]];
            history = (history << 1) | taken[i];
        }
    }

    // Sum depth d over its 2^d contexts in index order, then fold the
    // table to depth d - 1 by adding each context into the one that
    // lacks its oldest bit.
    const uint64_t total = soa.conditionalCount();
    std::vector<double> bits(depths.size(), 0.0);
    for (unsigned d = deepest;; --d) {
        const size_t contexts = size_t(1) << d;
        for (size_t slot = 0; slot < depths.size(); ++slot) {
            if (depths[slot] != d)
                continue;
            for (size_t x = 0; x < contexts; ++x)
                if (counts[x][0] + counts[x][1] != 0)
                    bits[slot] += contextBits(counts[x][0], counts[x][1],
                                              total);
        }
        if (d == 0)
            break;
        for (size_t x = 0; x < contexts / 2; ++x) {
            counts[x][0] += counts[x + contexts / 2][0];
            counts[x][1] += counts[x + contexts / 2][1];
        }
    }
    return bits;
}

std::vector<double>
localConditionedEntropyBits(const trace::BranchStreams &streams,
                            const std::vector<unsigned> &depths)
{
    const unsigned deepest = checkedDeepest(depths);
    if (depths.empty())
        return {};
    // Each distinct depth, deepest first, with the slots that ask for it.
    std::vector<std::pair<unsigned, std::vector<size_t>>> rungs;
    for (unsigned d = deepest + 1; d-- > 0;) {
        std::vector<size_t> slots;
        for (size_t slot = 0; slot < depths.size(); ++slot)
            if (depths[slot] == d)
                slots.push_back(slot);
        if (!slots.empty())
            rungs.emplace_back(d, std::move(slots));
    }
    uint64_t total = 0;
    for (uint32_t id = 0; id < streams.size(); ++id)
        total += streams.stream(id).size;

    // Every branch counts its deepest contexts into one table; each
    // shallower depth is those contexts under a narrower mask, folded
    // into a second table sized for the second-deepest depth.
    ContextTable deep(deepest);
    ContextTable shallow(rungs.size() > 1 ? rungs[1].first : 0);
    const uint64_t mask = (uint64_t(1) << deepest) - 1;
    std::vector<double> bits(depths.size(), 0.0);
    // Branch by branch in static-id order, each depth's contexts in
    // ascending history order: the (id, history) key order of the sum.
    auto sum = [&](ContextTable &table, const std::vector<size_t> &slots) {
        table.drain([&](const std::array<uint64_t, 2> &c) {
            for (size_t slot : slots)
                bits[slot] += contextBits(c[0], c[1], total);
        });
    };
    for (uint32_t id = 0; id < streams.size(); ++id) {
        const trace::BranchStreams::Stream stream = streams.stream(id);
        if (stream.size == 0)
            continue;
        uint64_t history = 0;
        for (uint64_t j = 0; j < stream.size; ++j) {
            const bool taken = stream[j];
            deep.count(history & mask, taken);
            history = (history << 1) | taken;
        }
        for (size_t r = 1; r < rungs.size(); ++r) {
            const uint64_t narrow = (uint64_t(1) << rungs[r].first) - 1;
            deep.forEach(
                [&](size_t context, const std::array<uint64_t, 2> &c) {
                    shallow.add(context & narrow, c);
                });
            sum(shallow, rungs[r].second);
        }
        sum(deep, rungs[0].second);
    }
    return bits;
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
    // One wall/CPU pair per fingerprint; the clocks are not read when
    // telemetry is off.
    obs::PhaseTimer timer(obs::ids().simPhaseCharacterizeSeconds,
                          obs::ids().simPhaseCharacterizeCpuSeconds);
    WorkloadFingerprint fp;
    fp.name = trace.name();
    fp.family = workloadFamily(trace.name());
    fp.seed = trace.seed();
    fp.records = trace.size();
    fp.conditionals = trace.conditionalCount();

    // Footprint and bias from the outcome streams the local ladder
    // reads: a branch's executions are its stream length and its taken
    // count the stream's popcount.
    const trace::BranchStreams streams(trace.soa());
    uint64_t taken = 0;
    uint64_t biased = 0; // executions of >99%-biased branches
    for (uint32_t id = 0; id < streams.size(); ++id) {
        const trace::BranchStreams::Stream stream = streams.stream(id);
        if (stream.size == 0)
            continue;
        const trace::StaticBranchStats branch{0, stream.size,
                                              stream.takenCount()};
        ++fp.staticBranches;
        taken += branch.taken;
        if (branch.bias() > 0.99)
            biased += branch.execs;
    }
    if (fp.conditionals > 0) {
        fp.takenRate = static_cast<double>(taken) /
            static_cast<double>(fp.conditionals);
        fp.biasedFraction99 = static_cast<double>(biased) /
            static_cast<double>(fp.conditionals);
    }

    const std::vector<double> global =
        globalConditionedEntropyBits(trace, options.depths);
    const std::vector<double> local =
        localConditionedEntropyBits(streams, options.depths);
    fp.curve.reserve(options.depths.size());
    for (size_t slot = 0; slot < options.depths.size(); ++slot)
        fp.curve.push_back(
            {options.depths[slot], global[slot], local[slot]});

    fp.gshareAccuracyPercent = std::nan("");
    if (options.withPredictor && fp.conditionals > 0) {
        // BenchmarkExperiment::ledgerFor(kGshareSpec)'s pass, run over
        // the caller's trace in place rather than over a copy.
        predictor::PredictorPtr gshare = predictor::makePredictor(kGshareSpec);
        sim::Ledger ledger;
        sim::run(trace, *gshare, &ledger);
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
        "in docs/TRACES.md)\ninto cache-v4 files, recording provenance "
        "in the run manifest:\n"
        "\n"
        "```\n"
        "build/tools/copra_ingest --in theirs.csv --out mine.trc\n"
        "build/tools/copra_characterize --trace mine.trc\n"
        "```\n"
        "\n"
        "The native binary format also round-trips through\n"
        "`src/trace/trace_io.hpp` directly (text reads back through\n"
        "`trace::ingestStream`); load with `loadBinary()`, as\n"
        "`copra_characterize --trace` does, and pass the trace to\n"
        "`core::BenchmarkExperiment(trace, config)`.\n"
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
