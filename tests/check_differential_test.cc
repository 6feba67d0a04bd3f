/**
 * @file
 * The differential-verification acceptance gate.
 *
 * 1. Zero mismatches between every optimized predictor path (scalar,
 *    SoA batch, sim::run) and the clarity-first reference models over
 *    100 fuzzed traces at a fixed seed range.
 * 2. Self-test: each deliberately-injected predictor bug is caught by
 *    the same harness and its first failure per pair shrunk to a
 *    reproducer of at most 1000 branches — a differential suite that
 *    cannot catch a planted off-by-one proves nothing.
 * 3. The delta-debugging minimizer is sound (output still fails),
 *    effective (output is much smaller), and deterministic.
 * 4. The hot gates' roster names every factory predictor once, and
 *    gate reports print in one shape.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>

#include "check/differential.hpp"
#include "check/fuzz.hpp"
#include "check/hot_gates.hpp"
#include "check/record_check.hpp"
#include "check/ref_models.hpp"
#include "predictor/factory.hpp"
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
    options.minimize = true; // no-op when nothing fails
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
        caught = !diffPair(fuzzTrace(seed, 2000), wrong).ok();
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
        std::set<std::string> seen;
        for (const SuiteFailure &failure : report.failures) {
            // Each pair's first failure is the one shrunk.
            EXPECT_EQ(failure.shrunk, seen.insert(failure.pair).second)
                << injectedBugName(bug) << " " << failure.pair;
            if (failure.shrunk) {
                EXPECT_LE(failure.reproducer.size(), 1000u)
                    << injectedBugName(bug)
                    << ": reproducer not shrunk below 1000 branches";
            }
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
        DiffResult result = diffPair(t, pair);
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

TEST(Differential, PeekingStepIsCaughtOnTheScalarPath)
{
    // StepPeeksOutcome's step() returns the outcome on weak sums, but
    // it inherits Perceptron's batch loop, which calls the clean
    // Perceptron::step: the scalar path must catch the peek, and no
    // batch path may see it.
    CheckPair pair = injectedBugPair(InjectedBug::StepPeeksOutcome);
    bool scalar_caught = false;
    bool batch_diverged = false;
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        DiffResult result = diffPair(fuzzTrace(seed, 1500), pair);
        for (const Mismatch &m : result.mismatches) {
            scalar_caught |= m.path == "scalar";
            batch_diverged |= m.path != "scalar";
        }
    }
    EXPECT_TRUE(scalar_caught) << "the scalar path missed the peek";
    EXPECT_FALSE(batch_diverged)
        << "the inherited batch loop must call the clean step()";
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

TEST(GateReport, FormatNamesSubjectSeedAndNote)
{
    // The seed prints only when set, the subject only when the gate has
    // one (the ingest gates do not), and the note after the counts.
    GateReport report;
    report.gatesRun = 7;
    report.note = "alloc probe absent";
    report.failures = {{"gshare:h=7", "hot-alloc", 3, "allocates"},
                       {"gshare:h=7", "hot-lock", 0, "locks"},
                       {"", "forgery", 0, "accepted"}};
    EXPECT_EQ(formatGateReport("hot gates", report),
              "hot gates: 7 checks, 3 failure(s) [alloc probe absent]\n"
              "  FAIL gshare:h=7 [hot-alloc] seed=3: allocates\n"
              "  FAIL gshare:h=7 [hot-lock]: locks\n"
              "  FAIL [forgery]: accepted\n");
}

TEST(HotGates, RosterNamesEveryFactoryPredictorOnce)
{
    // The hot gates replay this hand-kept list, so a factory predictor
    // left off it would skip them in silence.
    std::map<std::string, int> leads;
    for (const RosterEntry &entry : defaultGateRoster())
        ++leads[entry.spec.substr(0, entry.spec.find(':'))];
    for (const std::string &name : predictor::knownPredictors()) {
        EXPECT_EQ(leads[name], 1)
            << "factory predictor '" << name << "' should lead exactly "
            << "one roster spec";
        leads.erase(name);
    }
    for (const auto &[name, count] : leads)
        ADD_FAILURE() << count << " roster spec(s) name '" << name
                      << "', which is not a factory predictor";
}

} // namespace
} // namespace copra::check
