/**
 * @file
 * The differential-verification acceptance gate.
 *
 * 1. Zero mismatches between every optimized predictor path (scalar,
 *    SoA batch, sim::run, runAllParallel) and the clarity-first reference
 *    models over 100 fuzzed traces at a fixed seed range.
 * 2. Self-test: each deliberately-injected predictor bug is caught by
 *    the same harness and shrunk to a reproducer of at most 1000
 *    branches — a differential suite that cannot catch a planted
 *    off-by-one proves nothing.
 * 3. The delta-debugging minimizer is sound (output still fails),
 *    effective (output is much smaller), and deterministic.
 */

#include <gtest/gtest.h>

#include <memory>

#include "check/differential.hpp"
#include "check/fuzz.hpp"
#include "check/record_check.hpp"
#include "check/ref_models.hpp"
#include "predictor/two_level.hpp"

namespace copra::check {
namespace {

using predictor::TwoLevelConfig;

TEST(Differential, OptimizedMatchesReferenceOver100FuzzedTraces)
{
    SuiteOptions options;
    options.seedBase = 1;
    options.traces = 100;
    options.conditionals = 2000;
    options.minimize = true;     // no-op when nothing fails
    options.checkParallel = true;
    SuiteReport report = runCheckSuite(options);
    EXPECT_EQ(report.tracesRun, 100u);
    EXPECT_GT(report.comparisons, 100u);
    EXPECT_TRUE(report.ok()) << formatReport(report);
}

TEST(Differential, DetectsGeometryMismatchImmediately)
{
    // Sensitivity check: a pair whose two sides genuinely differ (gshare
    // with different history lengths) must produce mismatches on an
    // adversarial trace — if this passes silently the diff is vacuous.
    CheckPair wrong{
        "gshare(8)-vs-ref-gshare(5)",
        [] {
            return std::make_unique<predictor::TwoLevel>(
                TwoLevelConfig::gshare(8));
        },
        [] {
            return std::make_unique<RefTwoLevel>(TwoLevelConfig::gshare(5));
        }};
    bool caught = false;
    for (uint64_t seed = 1; seed <= 5 && !caught; ++seed)
        caught = !diffPair(fuzzTrace(seed, 2000), wrong, false).ok();
    EXPECT_TRUE(caught);
}

TEST(Differential, EveryInjectedBugIsCaughtAndShrunk)
{
    for (unsigned b = 0; b < kInjectedBugCount; ++b) {
        auto bug = static_cast<InjectedBug>(b);
        SuiteOptions options;
        options.seedBase = 1;
        options.traces = 6;
        options.conditionals = 1500;
        options.minimize = true;
        options.checkParallel = true;
        SuiteReport report = runInjectedSuite(options, bug);
        if (bug == InjectedBug::HotPathAlloc) {
            // Predicts bit-identically while heap-allocating per SoA
            // batch: invisible to every differential path by
            // construction. The runtime allocation gate owns it —
            // copra_check's --inject self-test (which links the
            // counting operator-new probe) requires the catch.
            ASSERT_TRUE(report.ok())
                << injectedBugName(bug)
                << " diverged; it must stay differentially invisible "
                   "so it proves the hot gates catch what diffing "
                   "cannot";
            continue;
        }
        ASSERT_FALSE(report.ok())
            << injectedBugName(bug) << " was not caught";
        for (const SuiteFailure &failure : report.failures) {
            EXPECT_LE(failure.reproducer.size(), 1000u)
                << injectedBugName(bug)
                << ": reproducer not shrunk below 1000 branches";
            EXPECT_GT(failure.reproducer.size(), 0u);
        }
    }
}

TEST(Differential, SoaOnlyBugEscapesScalarPathButNotSoa)
{
    // GshareSoaStaleHistory is constructed so the scalar path is
    // faithful and only the batch entry point diverges; catching it
    // proves the harness exercises predictUpdateSoa specifically, both
    // directly ("soa") and through the driver ("run").
    CheckPair pair = injectedBugPair(InjectedBug::GshareSoaStaleHistory);
    bool scalar_diverged = false;
    bool soa_caught = false;
    bool run_caught = false;
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        trace::Trace t = fuzzTrace(seed, 1500);
        DiffResult result = diffPair(t, pair, false);
        for (const Mismatch &m : result.mismatches) {
            scalar_diverged |= m.path == "scalar";
            soa_caught |= m.path == "soa";
            run_caught |= m.path == "run";
        }
    }
    EXPECT_FALSE(scalar_diverged)
        << "planted bug must be invisible to the scalar path";
    EXPECT_TRUE(soa_caught)
        << "the soa path must expose the stale-history bug";
    EXPECT_TRUE(run_caught)
        << "sim::run's aggregates must expose the stale-history bug";
}

TEST(Differential, ScalarAndSoaStreamsAgreeForCleanPredictor)
{
    // Direct stream-level check, independent of diffPair's plumbing.
    for (uint64_t seed : {1ull, 9ull, 23ull}) {
        trace::Trace t = fuzzTrace(seed, 1200);
        predictor::TwoLevel a(TwoLevelConfig::pas(7, 5, 3));
        predictor::TwoLevel b(TwoLevelConfig::pas(7, 5, 3));
        std::vector<uint8_t> scalar = scalarPredictions(t, a);
        std::vector<uint8_t> soa = soaPredictions(t, b);
        ASSERT_EQ(scalar.size(), soa.size()) << "seed " << seed;
        for (size_t i = 0; i < scalar.size(); ++i)
            ASSERT_EQ(scalar[i], soa[i])
                << "seed " << seed << " conditional " << i;
    }
}

TEST(Differential, MinimizerOutputStillFailsAndIsSmall)
{
    // Predicate: trace contains at least 3 conditionals at pc 0x40.
    // ddmin must keep exactly the witnesses it needs and nothing else.
    trace::Trace t = fuzzTrace(4, 800);
    for (int i = 0; i < 5; ++i)
        t.append({0x40, 0x80, trace::BranchKind::Conditional, i % 2 == 0});
    auto predicate = [](const trace::Trace &candidate) {
        size_t hits = 0;
        for (const auto &rec : candidate.records())
            if (rec.pc == 0x40 &&
                rec.kind == trace::BranchKind::Conditional)
                ++hits;
        return hits >= 3;
    };
    ASSERT_TRUE(predicate(t));
    trace::Trace shrunk = minimizeTrace(t, predicate);
    EXPECT_TRUE(predicate(shrunk)) << "minimizer lost the failure";
    EXPECT_EQ(shrunk.size(), 3u)
        << "minimizer should keep only the 3 required witnesses";

    // Determinism: same input, same predicate, same output.
    trace::Trace again = minimizeTrace(t, predicate);
    ASSERT_EQ(again.size(), shrunk.size());
    for (size_t i = 0; i < shrunk.size(); ++i)
        EXPECT_EQ(again[i], shrunk[i]);
}

TEST(Differential, MinimizerHandlesAlwaysFailingAndNeverFailing)
{
    trace::Trace t = fuzzTrace(2, 200);
    // Always-failing predicate: shrinks to the empty trace.
    trace::Trace empty =
        minimizeTrace(t, [](const trace::Trace &) { return true; });
    EXPECT_EQ(empty.size(), 0u);
    // The contract requires the input itself to fail; minimizeTrace on a
    // passing trace just returns it unchanged.
    trace::Trace same =
        minimizeTrace(t, [](const trace::Trace &) { return false; });
    EXPECT_EQ(same.size(), t.size());
}

TEST(Differential, DefaultRosterCoversThePaperFamilies)
{
    std::vector<CheckPair> pairs = defaultCheckPairs();
    EXPECT_GE(pairs.size(), 12u);
    auto has = [&](const std::string &needle) {
        for (const CheckPair &p : pairs)
            if (p.name.find(needle) != std::string::npos)
                return true;
        return false;
    };
    EXPECT_TRUE(has("gshare"));
    EXPECT_TRUE(has("GAg("));
    EXPECT_TRUE(has("GAs("));
    EXPECT_TRUE(has("PAs("));
    EXPECT_TRUE(has("PAg("));
    EXPECT_TRUE(has("pshare("));
    EXPECT_TRUE(has("bimodal"));
    EXPECT_TRUE(has("loop"));
    EXPECT_TRUE(has("block-pattern"));
    for (const CheckPair &p : pairs) {
        ASSERT_TRUE(p.optimized) << p.name;
        ASSERT_TRUE(p.reference) << p.name;
    }
}

} // namespace
} // namespace copra::check
