/**
 * @file
 * Unit tests for workload fingerprinting (core/characterize.hpp):
 * history-conditioned entropy on traces with known closed-form values,
 * both entropy ladders against record-order references (dense contexts
 * included), the fingerprint's footprint against trace::TraceStats,
 * its telemetry, fingerprint invariants over synthetic suite
 * workloads, family labeling, JSON emission, and the doc renderer's
 * drift-relevant structure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <unordered_map>

#include "check/fuzz.hpp"
#include "core/characterize.hpp"
#include "obs/instruments.hpp"
#include "obs/registry.hpp"
#include "trace/trace_stats.hpp"
#include "util/rng.hpp"
#include "workload/frontier.hpp"
#include "workload/profiles.hpp"

namespace copra::core {
namespace {

double
globalBits(const trace::Trace &t, unsigned depth)
{
    return globalConditionedEntropyBits(t, {depth})[0];
}

double
localBits(const trace::Trace &t, unsigned depth)
{
    return localConditionedEntropyBits(trace::BranchStreams(t.soa()),
                                       {depth})[0];
}

trace::Trace
condTrace(const std::vector<std::pair<uint64_t, bool>> &outcomes)
{
    trace::Trace t("unit", 1);
    for (const auto &[pc, taken] : outcomes)
        t.append({pc, pc + 64, trace::BranchKind::Conditional, taken});
    return t;
}

/** Strictly alternating T,N,T,N... at one pc. */
trace::Trace
alternatingTrace(size_t n)
{
    std::vector<std::pair<uint64_t, bool>> outcomes;
    for (size_t i = 0; i < n; ++i)
        outcomes.emplace_back(0x100, (i & 1) == 0);
    return condTrace(outcomes);
}

/** Binary entropy of counts (@p taken of @p total), in bits. */
double
referenceBinaryEntropy(uint64_t taken, uint64_t total)
{
    if (total == 0 || taken == 0 || taken == total)
        return 0.0;
    double p = static_cast<double>(taken) / static_cast<double>(total);
    return -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
}

/**
 * Reference global H(depth): one record-order pass per depth into a
 * dense table of 2^depth contexts, summed in index order.
 */
double
referenceGlobalBits(const trace::Trace &trace, unsigned depth)
{
    const trace::SoABlocks &soa = trace.soa();
    const uint8_t *taken = soa.taken();
    uint64_t mask = (uint64_t(1) << depth) - 1;
    std::vector<std::array<uint64_t, 2>> counts(size_t(1) << depth);
    uint64_t history = 0;
    uint64_t total = 0;
    for (const trace::SoABlocks::Segment &seg : soa.conditionalSegments()) {
        for (size_t i = seg.begin; i < seg.begin + seg.count; ++i) {
            ++counts[history & mask][taken[i]];
            history = (history << 1) | taken[i];
        }
        total += seg.count;
    }
    if (total == 0)
        return 0.0;
    double bits = 0.0;
    for (const auto &c : counts) {
        uint64_t n = c[0] + c[1];
        if (n == 0)
            continue;
        bits += static_cast<double>(n) / static_cast<double>(total) *
            referenceBinaryEntropy(c[1], n);
    }
    return bits;
}

/**
 * Reference local H(depth): one record-order pass per depth, a history
 * per static id, contexts (id << depth | history) in a hash map whose
 * entries are summed in ascending key order.
 */
double
referenceLocalBits(const trace::Trace &trace, unsigned depth)
{
    const trace::SoABlocks &soa = trace.soa();
    uint64_t mask = (uint64_t(1) << depth) - 1;
    std::vector<uint64_t> histories(soa.staticCount(), 0);
    std::unordered_map<uint64_t, std::array<uint64_t, 2>> contexts;
    uint64_t total = 0;
    for (const trace::SoABlocks::Segment &seg : soa.conditionalSegments()) {
        for (size_t i = seg.begin; i < seg.begin + seg.count; ++i) {
            uint32_t sidx = soa.staticIndex(i);
            uint8_t taken = soa.taken()[i];
            uint64_t key =
                (uint64_t(sidx) << depth) | (histories[sidx] & mask);
            ++contexts[key][taken];
            histories[sidx] = (histories[sidx] << 1) | taken;
        }
        total += seg.count;
    }
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
            referenceBinaryEntropy(counts[1], n);
    }
    return bits;
}

/** Both ladders equal their references bit for bit at every depth. */
void
expectLaddersMatchReferences(const trace::Trace &trace,
                             const std::vector<unsigned> &depths)
{
    const std::vector<double> global =
        globalConditionedEntropyBits(trace, depths);
    const std::vector<double> local =
        localConditionedEntropyBits(trace::BranchStreams(trace.soa()),
                                    depths);
    ASSERT_EQ(global.size(), depths.size());
    ASSERT_EQ(local.size(), depths.size());
    for (size_t slot = 0; slot < depths.size(); ++slot) {
        EXPECT_EQ(global[slot], referenceGlobalBits(trace, depths[slot]))
            << trace.name() << " global depth " << depths[slot];
        EXPECT_EQ(local[slot], referenceLocalBits(trace, depths[slot]))
            << trace.name() << " local depth " << depths[slot];
    }
}

const std::vector<unsigned> kLadder = CharacterizeOptions{}.depths;

TEST(CharacterizeLadders, MatchReferencesOnFuzzedTraces)
{
    for (uint64_t seed = 1; seed <= 20; ++seed)
        expectLaddersMatchReferences(check::fuzzTrace(seed, 2000), kLadder);
}

TEST(CharacterizeLadders, MatchReferencesOnTheSuite)
{
    for (const std::string &name : workload::workloadSuiteNames())
        expectLaddersMatchReferences(
            workload::makeBenchmarkTrace(name, 20000, 0), kLadder);
}

TEST(CharacterizeLadders, MatchReferencesInAnyDepthOrder)
{
    // Unsorted and repeated depths, the deepest allowed included: each
    // slot is its own depth's value.
    expectLaddersMatchReferences(check::fuzzTrace(7, 2000),
                                 {5, 0, kMaxEntropyDepth, 5, 1});
    expectLaddersMatchReferences(check::fuzzTrace(7, 2000), {});
}

TEST(CharacterizeLaddersDeath, DepthPastTheDenseTablesIsFatal)
{
    trace::Trace t = alternatingTrace(64);
    EXPECT_DEATH(globalConditionedEntropyBits(t, {4, kMaxEntropyDepth + 1}),
                 "at most 20");
    EXPECT_DEATH(localConditionedEntropyBits(trace::BranchStreams(t.soa()),
                                             {kMaxEntropyDepth + 1}),
                 "at most 20");
}

/** 100 jumps over three pcs and no conditional branch. */
trace::Trace
jumpsOnlyTrace()
{
    trace::Trace jumps("jumps-only", 1);
    for (int i = 0; i < 100; ++i)
        jumps.append({0x100 + 4 * uint64_t(i % 3), 0x800,
                      trace::BranchKind::Jump, true});
    return jumps;
}

TEST(CharacterizeLadders, TraceWithoutConditionalsIsZeroEverywhere)
{
    const trace::Trace jumps = jumpsOnlyTrace();
    expectLaddersMatchReferences(jumps, kLadder);
    for (double bits : localConditionedEntropyBits(
             trace::BranchStreams(jumps.soa()), kLadder))
        EXPECT_EQ(bits, 0.0);
    for (double bits : globalConditionedEntropyBits(jumps, kLadder))
        EXPECT_EQ(bits, 0.0);
}

TEST(CharacterizeLadders, BranchExecutedOnceMatchesReferences)
{
    // 0x300 runs once, between a loop's iterations and after another
    // branch's last; the others run hundreds of times.
    trace::Trace t("once", 1);
    for (int i = 0; i < 400; ++i) {
        t.append({0x100, 0x140, trace::BranchKind::Conditional, i % 5 != 4});
        if (i == 200)
            t.append({0x300, 0x340, trace::BranchKind::Conditional, false});
        if (i % 3 == 0)
            t.append({0x200, 0x240, trace::BranchKind::Conditional,
                      i % 2 == 0});
    }
    expectLaddersMatchReferences(t, kLadder);
}

TEST(CharacterizeLadders, DenseContextsMatchReferences)
{
    // Two interleaved branches with pseudo-random outcomes, 2^18
    // executions each: nearly every context at depths 12 and 16 is
    // touched, and at depth 20 every 64-context word of the bitmap is,
    // so the ordered traversal crosses every summary word. The second
    // branch reuses the tables the first one drained.
    trace::Trace t("dense", 1);
    Rng rng(33);
    for (uint64_t i = 0; i < (uint64_t(1) << 18); ++i) {
        const uint64_t bits = rng.next();
        t.append({0x100, 0x140, trace::BranchKind::Conditional,
                  (bits & 1) != 0});
        t.append({0x200, 0x240, trace::BranchKind::Conditional,
                  (bits & 2) != 0});
    }
    expectLaddersMatchReferences(t, {0, 12, 16, kMaxEntropyDepth});
}

/** The fingerprint's footprint equals TraceStats' record-order pass. */
void
expectFootprintMatchesTraceStats(const trace::Trace &trace)
{
    CharacterizeOptions options;
    options.withPredictor = false;
    const WorkloadFingerprint fp = characterizeTrace(trace, options);
    const trace::TraceStats stats(trace);
    EXPECT_EQ(fp.staticBranches, stats.staticBranches()) << trace.name();
    EXPECT_EQ(fp.takenRate,
              stats.dynamicBranches()
                  ? static_cast<double>(stats.dynamicTaken()) /
                      static_cast<double>(stats.dynamicBranches())
                  : 0.0)
        << trace.name();
    EXPECT_EQ(fp.biasedFraction99, stats.dynamicFractionWithBiasAbove(0.99))
        << trace.name();
}

TEST(CharacterizeFingerprint, FootprintMatchesTraceStats)
{
    for (const std::string &name : workload::workloadSuiteNames())
        expectFootprintMatchesTraceStats(
            workload::makeBenchmarkTrace(name, 20000, 0));
    for (uint64_t seed = 1; seed <= 20; ++seed)
        expectFootprintMatchesTraceStats(check::fuzzTrace(seed, 2000));
    expectFootprintMatchesTraceStats(jumpsOnlyTrace());
}

TEST(CharacterizeFingerprint, TelemetryTimesEachFingerprintOnce)
{
    // With telemetry on, each fingerprint adds one wall-time and one
    // CPU-time sample and computes exactly what an untimed one does.
    trace::Trace t = workload::makeBenchmarkTrace("xlisp", 20000, 0);
    CharacterizeOptions options;
    const WorkloadFingerprint quiet = characterizeTrace(t, options);
    obs::Registry::instance().reset();
    obs::setEnabled(true);
    const WorkloadFingerprint timed = characterizeTrace(t, options);
    characterizeTrace(t, options);
    obs::Snapshot snap = obs::Registry::instance().snapshot();
    obs::setEnabled(false);
    obs::Registry::instance().reset();

    const obs::InstrumentId id = obs::ids().simPhaseCharacterizeCpuSeconds;
    EXPECT_EQ(snap.values.at(id).count, 2u);
    EXPECT_GT(snap.values.at(id).sum, 0.0);
    EXPECT_EQ(
        snap.values.at(obs::ids().simPhaseCharacterizeSeconds).count, 2u);
    EXPECT_EQ(fingerprintToJson(quiet).dump(), fingerprintToJson(timed).dump());
}

TEST(CharacterizeEntropy, AlternatingBranchIsOneBitUnconditioned)
{
    trace::Trace t = alternatingTrace(4096);
    EXPECT_NEAR(globalBits(t, 0), 1.0, 1e-9);
    EXPECT_NEAR(localBits(t, 0), 1.0, 1e-9);
}

TEST(CharacterizeEntropy, OneHistoryBitExplainsAlternation)
{
    // After seeing the previous outcome, the next is fully determined;
    // only the single history-less first branch contributes entropy,
    // and it lands in a deterministic context anyway.
    trace::Trace t = alternatingTrace(4096);
    EXPECT_NEAR(globalBits(t, 1), 0.0, 1e-6);
    EXPECT_NEAR(localBits(t, 1), 0.0, 1e-6);
}

TEST(CharacterizeEntropy, AlwaysTakenBranchIsZeroEntropy)
{
    std::vector<std::pair<uint64_t, bool>> outcomes(1000, {0x100, true});
    trace::Trace t = condTrace(outcomes);
    for (unsigned depth : {0u, 1u, 4u, 8u})
        EXPECT_DOUBLE_EQ(globalBits(t, depth), 0.0)
            << "depth " << depth;
}

TEST(CharacterizeEntropy, BiasedBranchMatchesBinaryEntropyFormula)
{
    // 3-in-4 taken at a single pc: H = -(3/4)log2(3/4) - (1/4)log2(1/4).
    std::vector<std::pair<uint64_t, bool>> outcomes;
    for (int i = 0; i < 4000; ++i)
        outcomes.emplace_back(0x100, i % 4 != 0);
    trace::Trace t = condTrace(outcomes);
    double expected = -(0.75 * std::log2(0.75) + 0.25 * std::log2(0.25));
    EXPECT_NEAR(globalBits(t, 0), expected, 1e-9);
}

TEST(CharacterizeEntropy, LocalHistorySeparatesInterleavedBranches)
{
    // Branch A always taken, branch B always not, perfectly interleaved.
    // Per-address: both deterministic at depth 0. Global depth 0 sees a
    // 50/50 mix (1 bit), but 1 global bit identifies which branch is
    // next, so it collapses too.
    std::vector<std::pair<uint64_t, bool>> outcomes;
    for (int i = 0; i < 2000; ++i) {
        outcomes.emplace_back(0x100, true);
        outcomes.emplace_back(0x200, false);
    }
    trace::Trace t = condTrace(outcomes);
    EXPECT_NEAR(localBits(t, 0), 0.0, 1e-9);
    EXPECT_NEAR(globalBits(t, 0), 1.0, 1e-9);
    EXPECT_NEAR(globalBits(t, 1), 0.0, 1e-6);
}

TEST(CharacterizeEntropy, LoopTripCountNeedsEnoughHistoryBits)
{
    // A trip-4 loop body (T,T,T,N repeating): 2 history bits cannot
    // distinguish position 3 of TTTN from positions 0-1, but 3 bits
    // pin every position exactly.
    std::vector<std::pair<uint64_t, bool>> outcomes;
    for (int i = 0; i < 4000; ++i)
        outcomes.emplace_back(0x100, i % 4 != 3);
    trace::Trace t = condTrace(outcomes);
    EXPECT_GT(globalBits(t, 2), 0.1);
    EXPECT_NEAR(globalBits(t, 3), 0.0, 1e-6);
}

TEST(CharacterizeEntropy, DeeperHistoryNeverHurts)
{
    trace::Trace t = workload::makeBenchmarkTrace("gcc", 30000, 0);
    double prev_g = globalBits(t, 0);
    double prev_l = localBits(t, 0);
    for (unsigned depth : {2u, 4u, 8u, 12u}) {
        double g = globalBits(t, depth);
        double l = localBits(t, depth);
        // Conditioning on more bits cannot increase empirical entropy.
        EXPECT_LE(g, prev_g + 1e-9) << "global depth " << depth;
        EXPECT_LE(l, prev_l + 1e-9) << "local depth " << depth;
        prev_g = g;
        prev_l = l;
    }
}

TEST(CharacterizeFingerprint, CoversFootprintBiasAndPredictor)
{
    trace::Trace t = workload::makeBenchmarkTrace("compress", 20000, 0);
    CharacterizeOptions options;
    WorkloadFingerprint fp = characterizeTrace(t, options);
    EXPECT_EQ(fp.name, "compress");
    EXPECT_EQ(fp.family, "paper");
    EXPECT_EQ(fp.records, t.size());
    EXPECT_EQ(fp.conditionals, t.conditionalCount());
    EXPECT_GT(fp.staticBranches, 0u);
    EXPECT_GT(fp.takenRate, 0.0);
    EXPECT_LT(fp.takenRate, 1.0);
    EXPECT_GE(fp.biasedFraction99, 0.0);
    EXPECT_LE(fp.biasedFraction99, 1.0);
    ASSERT_EQ(fp.curve.size(), options.depths.size());
    EXPECT_FALSE(std::isnan(fp.gshareAccuracyPercent));
    EXPECT_GT(fp.gshareAccuracyPercent, 50.0);
    EXPECT_GE(fp.globalHistoryGainBits(), -1e-9);
    EXPECT_GE(fp.localHistoryGainBits(), -1e-9);
}

TEST(CharacterizeFingerprint, NoPredictorAndNoConditionalsYieldNaN)
{
    trace::Trace t = workload::makeBenchmarkTrace("xlisp", 5000, 0);
    CharacterizeOptions options;
    options.withPredictor = false;
    WorkloadFingerprint fp = characterizeTrace(t, options);
    EXPECT_TRUE(std::isnan(fp.gshareAccuracyPercent));
    EXPECT_EQ(fp.h2pBranches, 0u);

    trace::Trace jumps("jumps-only", 1);
    for (int i = 0; i < 100; ++i)
        jumps.append({0x100, 0x200, trace::BranchKind::Jump, true});
    options.withPredictor = true;
    WorkloadFingerprint empty = characterizeTrace(jumps, options);
    EXPECT_TRUE(std::isnan(empty.gshareAccuracyPercent));
    EXPECT_EQ(empty.conditionals, 0u);
}

TEST(CharacterizeFingerprint, FamiliesAreLabeled)
{
    EXPECT_EQ(workloadFamily("gcc"), "paper");
    EXPECT_EQ(workloadFamily("interp"), "frontier");
    EXPECT_EQ(workloadFamily("datadep"), "frontier");
    EXPECT_EQ(workloadFamily("nestloop"), "frontier");
    EXPECT_EQ(workloadFamily("sample_foreign"), "foreign");
}

TEST(CharacterizeJson, EmitsSchemaDocumentWithNullForNaN)
{
    trace::Trace t = workload::makeBenchmarkTrace("interp", 10000, 0);
    CharacterizeOptions options;
    options.withPredictor = false;
    WorkloadFingerprint fp = characterizeTrace(t, options);
    std::string doc = fingerprintsToJson({fp}).dump(2);
    EXPECT_NE(doc.find("\"schema_version\""), std::string::npos);
    EXPECT_NE(doc.find("fingerprint.schema.json"), std::string::npos);
    EXPECT_NE(doc.find("\"interp\""), std::string::npos);
    EXPECT_NE(doc.find("\"gshare_accuracy_percent\": null"),
              std::string::npos);
    EXPECT_EQ(doc.find("nan"), std::string::npos);
}

TEST(CharacterizeDoc, TableHasOneRowPerFingerprintInOrder)
{
    CharacterizeOptions options;
    options.withPredictor = false;
    std::vector<WorkloadFingerprint> fps;
    for (const char *name : {"compress", "interp"}) {
        trace::Trace t = workload::makeBenchmarkTrace(name, 5000, 0);
        fps.push_back(characterizeTrace(t, options));
    }
    std::string table = renderFingerprintTable(fps);
    size_t compress_at = table.find("| compress ");
    size_t interp_at = table.find("| interp ");
    EXPECT_NE(compress_at, std::string::npos);
    EXPECT_NE(interp_at, std::string::npos);
    EXPECT_LT(compress_at, interp_at);

    std::string doc = renderWorkloadsDoc(fps, 5000);
    // The drift-gate contract: the doc names its generator and embeds
    // the table verbatim, so adding a family without regenerating is a
    // byte-level diff the gate catches.
    EXPECT_NE(doc.find("copra_characterize --doc-workloads"),
              std::string::npos);
    EXPECT_NE(doc.find(table), std::string::npos);
}

} // namespace
} // namespace copra::core
