/**
 * @file
 * Property tests for relationships the paper relies on, checked over
 * both fuzzed adversarial traces and the synthetic benchmark suite.
 *
 * Two of the three are theorems and hold exactly on every trace:
 * per-pc-majority ideal static dominates any per-pc-constant rule
 * (always-taken, always-not-taken, and — when conditional targets are
 * per-pc constant — BTFNT). The ideal static floor there is
 * core::idealStaticLedger over the compared predictor's own ledger,
 * and it must equal trace::TraceStats' count on every trace. The
 * third family (IF gshare vs gshare, selective-history growth) is
 * *not* a pointwise theorem — DESIGN.md §6 documents the training-time
 * and greedy-selection caveats — so those are pinned as suite-level
 * empirical facts on the deterministic benchmark traces, where they
 * are stable run-to-run by construction.
 */

#include <gtest/gtest.h>

#include <map>

#include "check/fuzz.hpp"
#include "core/best_of.hpp"
#include "core/experiments.hpp"
#include "core/oracle.hpp"
#include "predictor/interference_free.hpp"
#include "predictor/static_pred.hpp"
#include "predictor/two_level.hpp"
#include "sim/driver.hpp"
#include "trace/trace_stats.hpp"
#include "workload/profiles.hpp"

namespace copra {
namespace {

core::ExperimentConfig
smallConfig(uint64_t branches)
{
    core::ExperimentConfig config;
    config.branches = branches;
    return config;
}

double
accuracyOf(const trace::Trace &t, predictor::Predictor &&pred)
{
    return sim::run(t, pred).accuracyPercent();
}

/** Ten fuzzed adversarial traces, then the eight benchmark traces. */
std::vector<trace::Trace>
fuzzAndSuiteTraces()
{
    std::vector<trace::Trace> traces;
    for (uint64_t seed = 1; seed <= 10; ++seed)
        traces.push_back(check::fuzzTrace(seed, 2000));
    for (const std::string &name : workload::benchmarkNames())
        traces.push_back(
            core::makeExperimentTrace(name, smallConfig(5000)));
    return traces;
}

/**
 * The ideal static ledger, derived from @p pred's own ledger over @p t,
 * must get every branch right at least as often as @p pred does.
 */
void
expectIdealStaticDominates(const trace::Trace &t,
                           predictor::Predictor &&pred)
{
    sim::Ledger ledger;
    sim::run(t, pred, &ledger);
    const sim::Ledger ideal = core::idealStaticLedger(ledger);
    ASSERT_EQ(ideal.table().size(), ledger.table().size()) << t.name();
    size_t beaten = 0;
    for (size_t i = 0; i < ledger.table().size(); ++i) {
        if (ideal.table()[i].second.correct <
            ledger.table()[i].second.correct)
            ++beaten;
    }
    EXPECT_EQ(beaten, 0u) << t.name() << ": " << pred.name()
                          << " beat ideal static on some branches";
    EXPECT_GE(ideal.correct(), ledger.correct()) << t.name();
}

/** Do all conditional records at each pc share one target? */
bool
conditionalTargetsArePerPcConstant(const trace::Trace &t)
{
    std::map<uint64_t, uint64_t> target;
    for (const auto &rec : t.records()) {
        if (rec.kind != trace::BranchKind::Conditional)
            continue;
        auto [it, fresh] = target.emplace(rec.pc, rec.target);
        if (!fresh && it->second != rec.target)
            return false;
    }
    return true;
}

TEST(PaperInvariants, IdealStaticDominatesAlwaysTakenAndNotTaken)
{
    // Theorem: per-pc majority beats any fixed direction, per pc, hence
    // in aggregate. Must hold on *every* trace, including adversarial
    // fuzz streams.
    for (const trace::Trace &t : fuzzAndSuiteTraces()) {
        expectIdealStaticDominates(t, predictor::AlwaysTaken());
        expectIdealStaticDominates(t, predictor::AlwaysNotTaken());
    }
}

TEST(PaperInvariants, IdealStaticDominatesBtfntOnConstantTargetTraces)
{
    // BTFNT is per-pc constant only when each conditional's target is;
    // on such traces majority-direction dominance extends to it. The
    // benchmark suite satisfies the precondition by construction.
    size_t checked = 0;
    for (const std::string &name : workload::benchmarkNames()) {
        trace::Trace t = core::makeExperimentTrace(name, smallConfig(5000));
        if (!conditionalTargetsArePerPcConstant(t))
            continue; // precondition violated -> theorem does not apply
        ++checked;
        expectIdealStaticDominates(t, predictor::Btfnt());
    }
    EXPECT_GT(checked, 0u)
        << "no benchmark trace had per-pc-constant conditional targets";
}

TEST(PaperInvariants, IdealStaticLedgerMatchesTraceStats)
{
    // The two ways copra computes the ideal static floor agree: from
    // the taken counts of any predictor's ledger, and from the trace's
    // own per-branch statistics.
    for (const trace::Trace &t : fuzzAndSuiteTraces()) {
        const uint64_t want = trace::TraceStats(t).idealStaticCorrect();
        predictor::AlwaysTaken taken;
        predictor::TwoLevel gshare(predictor::TwoLevelConfig::gshare(10));
        predictor::Predictor *preds[] = {&taken, &gshare};
        for (predictor::Predictor *pred : preds) {
            sim::Ledger ledger;
            sim::run(t, *pred, &ledger);
            EXPECT_EQ(core::idealStaticLedger(ledger).correct(), want)
                << t.name() << " " << pred->name();
        }
    }
}

TEST(PaperInvariants, IfGshareBeatsGshareAtEqualHistoryOnSuite)
{
    // Not a pointwise theorem (training time; DESIGN.md §6) — but with a
    // deliberately small shared PHT, destructive aliasing dominates and
    // the interference-free version must win or tie on every benchmark.
    // Traces are seeded and deterministic, so this is stable.
    const unsigned history = 8;
    for (const std::string &name : workload::benchmarkNames()) {
        trace::Trace t =
            core::makeExperimentTrace(name, smallConfig(20000));
        double aliased = accuracyOf(
            t, predictor::TwoLevel(
                   predictor::TwoLevelConfig::gshare(history)));
        double interference_free =
            accuracyOf(t, predictor::IfGshare(history));
        EXPECT_GE(interference_free + 0.05, aliased)
            << name << ": IF gshare lost to aliased gshare at h="
            << history;
    }
}

TEST(PaperInvariants, SelectiveHistoryAccuracyGrowsWithSetSize)
{
    // Greedy selection is not strictly monotone branch-by-branch, and
    // even suite-level accuracy can dip a hair on the 2 -> 3 step when
    // the 27-entry tables pay their training time (DESIGN.md §6). What
    // does hold, deterministically, on traces long enough to train: the
    // 1 -> 2 step never loses, the 2 -> 3 dip stays within training
    // noise, and the full 1 -> 3 step is a net win.
    core::OracleConfig config;
    config.historyDepth = 16;
    config.candidatePool = 14;
    config.maxSelect = 3;
    for (const char *name : {"compress", "gcc"}) {
        trace::Trace t =
            core::makeExperimentTrace(name, smallConfig(20000));
        core::SelectiveOracle oracle(t, config);
        double a1 = oracle.toLedger(1).accuracyPercent();
        double a2 = oracle.toLedger(2).accuracyPercent();
        double a3 = oracle.toLedger(3).accuracyPercent();
        EXPECT_GE(a2, a1) << name;
        EXPECT_GE(a3 + 0.25, a2) << name;
        EXPECT_GE(a3, a1) << name
                          << ": size-3 selective history must not lose "
                             "to size-1 at suite level";
    }
}

TEST(PaperInvariants, GreedySelectionsAreNestedAndScoresBounded)
{
    // What greedy forward selection *does* guarantee per branch: the
    // size-s set is a strict prefix of the size-(s+1) set, set sizes
    // never exceed their nominal arity, and no score exceeds the
    // branch's execution count. (Pointwise score monotonicity is NOT
    // guaranteed — extending the pattern table can cost training time,
    // DESIGN.md §6 — so it is deliberately not asserted here.)
    core::OracleConfig config;
    config.historyDepth = 16;
    config.candidatePool = 8;
    trace::Trace t =
        core::makeExperimentTrace("compress", smallConfig(8000));
    core::SelectiveOracle oracle(t, config);
    size_t branches_checked = 0;
    for (const auto &[pc, sel] : oracle.branches()) {
        if (sel.execs == 0)
            continue;
        ++branches_checked;
        for (unsigned s = 0; s < 3; ++s) {
            EXPECT_LE(sel.chosen[s].size(), s + 1) << "pc " << pc;
            EXPECT_LE(sel.correct[s], sel.execs) << "pc " << pc;
        }
        for (unsigned s = 0; s + 1 < 3; ++s) {
            // Nesting: chosen[s] is a prefix of chosen[s+1].
            ASSERT_LE(sel.chosen[s].size(), sel.chosen[s + 1].size())
                << "pc " << pc;
            for (size_t i = 0; i < sel.chosen[s].size(); ++i)
                EXPECT_TRUE(sel.chosen[s][i] == sel.chosen[s + 1][i])
                    << "pc " << pc << " size " << s << " tag " << i;
        }
    }
    EXPECT_GT(branches_checked, 0u);
}

} // namespace
} // namespace copra
