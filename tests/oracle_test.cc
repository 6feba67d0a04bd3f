/**
 * @file
 * Unit tests for the selective-history oracle: exact replay scoring,
 * greedy and exhaustive selection, and the ledger/selection exports.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "core/oracle.hpp"
#include "core/selective.hpp"
#include "obs/instruments.hpp"
#include "obs/registry.hpp"
#include "sim/driver.hpp"
#include "util/rng.hpp"
#include "workload/patterns.hpp"
#include "workload/profiles.hpp"

namespace copra::core {
namespace {

using trace::BranchKind;

/** Pack a replay row: candidate states (2 bits each) plus outcome. */
uint32_t
row(std::initializer_list<TagOutcome> states, bool taken)
{
    uint32_t r = taken ? (1u << 31) : 0u;
    unsigned i = 0;
    for (TagOutcome s : states)
        r |= static_cast<uint32_t>(s) << (2 * i++);
    return r;
}

TEST(ReplayScore, EmptySubsetIsABareCounter)
{
    // Counter starts weakly-not-taken: predicts N until trained.
    std::vector<uint32_t> rows = {
        row({}, false), // predict N, correct
        row({}, true),  // predict N, wrong; counter moves to 1->2? (0->1)
        row({}, true),  // counter 1: predict N, wrong
        row({}, true),  // counter 2: predict T, correct
        row({}, true),  // correct
    };
    // Walk: c=1: N vs N correct (c->0); T wrong (c->1); T wrong? c=1
    // predicts N, wrong (c->2); T correct (c->3); T correct.
    EXPECT_EQ(SelectiveOracle::replayScore(rows, {}), 3u);
}

TEST(ReplayScore, SingleCandidateSeparatesContexts)
{
    // Candidate state Taken -> outcome T; NotTaken -> outcome N.
    std::vector<uint32_t> rows;
    for (int i = 0; i < 50; ++i) {
        rows.push_back(row({TagOutcome::Taken}, true));
        rows.push_back(row({TagOutcome::NotTaken}, false));
    }
    // Only initial training misses (<= 2 per pattern).
    EXPECT_GE(SelectiveOracle::replayScore(rows, {0}), 96u);
    // Ignoring the candidate (empty subset) alternates and does badly.
    EXPECT_LT(SelectiveOracle::replayScore(rows, {}), 60u);
}

TEST(ReplayScore, SubsetSelectsTheRightBits)
{
    // Two candidates; only candidate 1 is informative.
    std::vector<uint32_t> rows;
    Rng rng(9);
    for (int i = 0; i < 200; ++i) {
        TagOutcome noise =
            rng.bernoulli(0.5) ? TagOutcome::Taken : TagOutcome::NotTaken;
        bool outcome = rng.bernoulli(0.5);
        TagOutcome informative =
            outcome ? TagOutcome::Taken : TagOutcome::NotTaken;
        rows.push_back(row({noise, informative}, outcome));
    }
    uint64_t with_informative = SelectiveOracle::replayScore(rows, {1});
    uint64_t with_noise = SelectiveOracle::replayScore(rows, {0});
    EXPECT_GT(with_informative, 190u);
    EXPECT_LT(with_noise, 140u);
}

/** Greedy selection scored one subset at a time through replayScore. */
struct ReferenceGreedy
{
    std::array<uint64_t, 3> correct{};
    std::array<std::vector<unsigned>, 3> chosen{};
};

ReferenceGreedy
referenceGreedy(const std::vector<uint32_t> &rows, unsigned k,
                unsigned max_select)
{
    ReferenceGreedy out;
    std::vector<unsigned> chosen;
    uint64_t last_score = SelectiveOracle::replayScore(rows, chosen);

    for (unsigned size = 1; size <= max_select; ++size) {
        unsigned best_candidate = UINT32_MAX;
        uint64_t best_score = 0;
        for (unsigned c = 0; c < k; ++c) {
            if (std::find(chosen.begin(), chosen.end(), c) != chosen.end())
                continue;
            std::vector<unsigned> trial = chosen;
            trial.push_back(c);
            uint64_t score = SelectiveOracle::replayScore(rows, trial);
            if (best_candidate == UINT32_MAX || score > best_score) {
                best_candidate = c;
                best_score = score;
            }
        }
        if (best_candidate != UINT32_MAX) {
            chosen.push_back(best_candidate);
            last_score = best_score;
        }
        out.correct[size - 1] = last_score;
        out.chosen[size - 1] = chosen;
    }
    return out;
}

/** Assert greedySelect() matches the one-subset-at-a-time reference. */
void
expectGreedyMatchesReference(const std::vector<uint32_t> &rows, unsigned k,
                             unsigned max_select, const std::string &what)
{
    ReferenceGreedy ref = referenceGreedy(rows, k, max_select);
    GreedySelection got = SelectiveOracle::greedySelect(rows, k, max_select);
    for (unsigned size = 1; size <= max_select; ++size) {
        SCOPED_TRACE(what + " k=" + std::to_string(k) +
                     " max_select=" + std::to_string(max_select) +
                     " size=" + std::to_string(size));
        EXPECT_EQ(got.correct[size - 1], ref.correct[size - 1]);
        std::vector<unsigned> chosen(
            got.order.begin(),
            got.order.begin() + std::min(size, got.picked));
        EXPECT_EQ(chosen, ref.chosen[size - 1]);
    }
}

/** Random rows over @p k candidates with states in 0..2. */
std::vector<uint32_t>
randomRows(unsigned k, size_t n, double taken_rate, Rng &rng)
{
    std::vector<uint32_t> rows;
    for (size_t r = 0; r < n; ++r) {
        uint32_t packed = rng.bernoulli(taken_rate) ? (1u << 31) : 0u;
        for (unsigned c = 0; c < k; ++c)
            packed |= static_cast<uint32_t>(rng.next() % 3) << (2 * c);
        rows.push_back(packed);
    }
    return rows;
}

TEST(GreedySelect, MatchesReplayScoreReferenceOnRandomRows)
{
    Rng rng(123);
    for (unsigned k = 1; k <= 15; ++k) {
        for (unsigned max_select = 1; max_select <= 3; ++max_select) {
            expectGreedyMatchesReference(randomRows(k, 400, 0.5, rng), k,
                                         max_select, "random");
            expectGreedyMatchesReference(randomRows(k, 250, 0.85, rng), k,
                                         max_select, "biased");
        }
    }
}

TEST(GreedySelect, MatchesReferenceOnCorrelatedRows)
{
    // The outcome follows one candidate's state, so scores differ
    // widely and the greedy order does not simply start at index 0.
    Rng rng(7);
    for (unsigned k = 1; k <= 15; ++k) {
        std::vector<uint32_t> rows = randomRows(k, 600, 0.5, rng);
        unsigned informative = (3 * k) / 4;
        for (uint32_t &packed : rows) {
            bool taken = ((packed >> (2 * informative)) & 3u) == 2u;
            packed = (packed & ~(1u << 31)) | (taken ? 1u << 31 : 0u);
        }
        for (unsigned max_select = 1; max_select <= 3; ++max_select)
            expectGreedyMatchesReference(rows, k, max_select, "correlated");
    }
}

TEST(GreedySelect, TiesGoToTheLowestIndex)
{
    Rng rng(5);
    for (unsigned k = 1; k <= 15; ++k) {
        for (unsigned max_select = 1; max_select <= 3; ++max_select) {
            // A constant outcome scores every subset alike.
            expectGreedyMatchesReference(randomRows(k, 300, 1.0, rng), k,
                                         max_select, "always taken");
            expectGreedyMatchesReference(randomRows(k, 300, 0.0, rng), k,
                                         max_select, "never taken");
            // Identical candidate columns tie on any outcome sequence.
            std::vector<uint32_t> rows;
            for (int r = 0; r < 300; ++r) {
                uint32_t state = static_cast<uint32_t>(rng.next() % 3);
                uint32_t packed = rng.bernoulli(0.5) ? (1u << 31) : 0u;
                for (unsigned c = 0; c < k; ++c)
                    packed |= state << (2 * c);
                rows.push_back(packed);
            }
            expectGreedyMatchesReference(rows, k, max_select, "identical");
            expectGreedyMatchesReference({}, k, max_select, "no rows");
        }
    }
    GreedySelection tied = SelectiveOracle::greedySelect(
        randomRows(6, 100, 1.0, rng), 6, 3);
    EXPECT_EQ(tied.order, (std::array<unsigned, 3>{0, 1, 2}));
}

TEST(GreedySelect, LargerSizesInheritWhenCandidatesRunOut)
{
    Rng rng(11);
    for (unsigned k = 0; k < 3; ++k) {
        std::vector<uint32_t> rows = randomRows(k, 300, 0.6, rng);
        expectGreedyMatchesReference(rows, k, 3, "short pool");
        GreedySelection got = SelectiveOracle::greedySelect(rows, k, 3);
        EXPECT_EQ(got.picked, k);
        for (unsigned size = k + 1; size <= 3; ++size) {
            EXPECT_EQ(got.correct[size - 1],
                      k == 0 ? SelectiveOracle::replayScore(rows, {})
                             : got.correct[k - 1]);
        }
    }
}

TEST(Oracle, RecoversPerfectCorrelation)
{
    auto trace = workload::correlatedPairTrace(0x100, 0x200, 0.5, 1.0,
                                               8000, 3);
    OracleConfig config;
    config.historyDepth = 16;
    config.candidatePool = 8;
    SelectiveOracle oracle(trace, config);

    const BranchSelection *x = oracle.branch(0x200);
    ASSERT_NE(x, nullptr);
    EXPECT_EQ(x->execs, 8000u);
    // One watched branch suffices for near-perfect prediction.
    EXPECT_GT(100.0 * x->correct[0] / x->execs, 99.0);
    ASSERT_EQ(x->chosen[0].size(), 1u);
    EXPECT_EQ(x->chosen[0][0].pc(), 0x100u);
}

TEST(Oracle, TwoBranchesBeatOneOnConjunction)
{
    // X = Y1 AND Y2 with independent coins.
    trace::Trace t("and2");
    Rng rng(5);
    for (int i = 0; i < 15000; ++i) {
        bool c1 = rng.bernoulli(0.5);
        bool c2 = rng.bernoulli(0.5);
        t.append({0x100, 0x180, BranchKind::Conditional, c1});
        t.append({0x104, 0x180, BranchKind::Conditional, c2});
        t.append({0x108, 0x180, BranchKind::Conditional, c1 && c2});
    }
    OracleConfig config;
    config.candidatePool = 8;
    SelectiveOracle oracle(t, config);
    const BranchSelection *x = oracle.branch(0x108);
    ASSERT_NE(x, nullptr);
    double acc1 = 100.0 * x->correct[0] / x->execs;
    double acc2 = 100.0 * x->correct[1] / x->execs;
    EXPECT_GT(acc2, 99.0);
    EXPECT_GT(acc2, acc1 + 8.0);
    EXPECT_EQ(x->chosen[1].size(), 2u);
}

TEST(Oracle, AggregateAccuracyIsExecutionWeighted)
{
    auto trace = workload::correlatedPairTrace(0x100, 0x200, 0.5, 1.0,
                                               4000, 3);
    OracleConfig config;
    SelectiveOracle oracle(trace, config);
    // Y is a coin (~50%); X is near-perfect: aggregate ~75%.
    double agg = oracle.accuracyPercent(1);
    EXPECT_GT(agg, 70.0);
    EXPECT_LT(agg, 80.0);
}

TEST(Oracle, LedgerMatchesSelections)
{
    auto trace = workload::correlatedPairTrace(0x100, 0x200, 0.5, 0.9,
                                               3000, 7);
    OracleConfig config;
    SelectiveOracle oracle(trace, config);
    sim::Ledger ledger = oracle.toLedger(1);
    EXPECT_EQ(ledger.branch(0x200).execs, 3000u);
    EXPECT_EQ(ledger.branch(0x200).correct,
              oracle.branch(0x200)->correct[0]);
    EXPECT_EQ(ledger.dynamic(), 6000u);
}

TEST(Oracle, SelectionMapFeedsOnlinePredictor)
{
    auto trace = workload::correlatedPairTrace(0x100, 0x200, 0.5, 1.0,
                                               3000, 7);
    OracleConfig config;
    SelectiveOracle oracle(trace, config);
    auto map = oracle.selectionMap(1);
    ASSERT_TRUE(map.count(0x200));
    EXPECT_EQ(map.at(0x200).size(), 1u);
}

TEST(Oracle, ExhaustiveAtLeastMatchesGreedy)
{
    trace::Trace t("xor");
    Rng rng(11);
    // X = Y1 XOR Y2: greedy's first pick is uninformative alone, so
    // exhaustive pair search must win or tie at size 2.
    for (int i = 0; i < 4000; ++i) {
        bool c1 = rng.bernoulli(0.5);
        bool c2 = rng.bernoulli(0.5);
        t.append({0x100, 0x180, BranchKind::Conditional, c1});
        t.append({0x104, 0x180, BranchKind::Conditional, c2});
        t.append({0x108, 0x180, BranchKind::Conditional, c1 != c2});
    }
    // XOR has zero *marginal* information per input, so gain-ranked
    // mining cannot prioritize the right candidates; keep the candidate
    // space small enough (depth 4, only three static branches) that the
    // pool provably contains both inputs.
    OracleConfig greedy;
    greedy.historyDepth = 4;
    greedy.candidatePool = 8;
    OracleConfig exhaustive = greedy;
    exhaustive.exhaustive = true;

    SelectiveOracle g(t, greedy);
    SelectiveOracle e(t, exhaustive);
    EXPECT_GE(e.branch(0x108)->correct[1] + 8,
              g.branch(0x108)->correct[1]);
    // The XOR needs both inputs: exhaustive size-2 is near perfect.
    EXPECT_GT(100.0 * e.branch(0x108)->correct[1] /
                  e.branch(0x108)->execs,
              97.0);
}

TEST(Oracle, InPathCorrelationIsCaptured)
{
    auto trace = workload::inPathTrace(0x100, 0.5, 0.5, 0.5, 12000, 13);
    OracleConfig config;
    SelectiveOracle oracle(trace, config);
    const BranchSelection *x = oracle.branch(0x140);
    ASSERT_NE(x, nullptr);
    // X's bias ceiling is 75%; in-path correlation must beat it well.
    EXPECT_GT(100.0 * x->correct[0] / x->execs, 90.0);
}

TEST(Oracle, ColdBranchFallsBackToCounter)
{
    // A branch with no mined candidates (whole trace is one branch with
    // an empty window preceding it) still gets scored.
    auto trace = workload::biasedTrace(0x100, 0.9, 500, 3);
    OracleConfig config;
    SelectiveOracle oracle(trace, config);
    const BranchSelection *b = oracle.branch(0x100);
    ASSERT_NE(b, nullptr);
    EXPECT_GT(100.0 * b->correct[2] / b->execs, 80.0);
}

TEST(Oracle, DepthLimitsCandidateVisibility)
{
    // Y and X separated by 20 noise branches: a depth-8 oracle cannot
    // see Y, a depth-32 one can.
    trace::Trace t("far");
    Rng rng(17);
    for (int i = 0; i < 4000; ++i) {
        bool c = rng.bernoulli(0.5);
        t.append({0x100, 0x180, BranchKind::Conditional, c});
        for (int j = 0; j < 20; ++j) {
            t.append({0x400 + 4u * j, 0x480, BranchKind::Conditional,
                      rng.bernoulli(0.5)});
        }
        t.append({0x200, 0x280, BranchKind::Conditional, c});
    }
    OracleConfig narrow;
    narrow.historyDepth = 8;
    OracleConfig wide;
    wide.historyDepth = 32;
    SelectiveOracle near_oracle(t, narrow);
    SelectiveOracle far_oracle(t, wide);
    double near_acc = 100.0 * near_oracle.branch(0x200)->correct[0] /
        near_oracle.branch(0x200)->execs;
    double far_acc = 100.0 * far_oracle.branch(0x200)->correct[0] /
        far_oracle.branch(0x200)->execs;
    EXPECT_LT(near_acc, 60.0);
    EXPECT_GT(far_acc, 97.0);
}

TEST(Oracle, OnlineSelectivePredictorMatchesReplayExactly)
{
    // The oracle scores selections by replaying recorded states through
    // a fresh counter table; the online SelectivePredictor implements
    // the same scheme incrementally. For the same selection the two
    // must agree on every branch, exactly — any divergence means the
    // window bookkeeping, the 3-valued encoding, or the counter
    // dynamics desynchronized.
    auto trace = workload::inPathTrace(0x100, 0.4, 0.6, 0.5, 6000, 21);
    OracleConfig config;
    config.historyDepth = 16;
    config.candidatePool = 8;
    SelectiveOracle oracle(trace, config);

    for (unsigned size = 1; size <= 3; ++size) {
        SelectivePredictor online(oracle.selectionMap(size),
                                  config.historyDepth);
        sim::Ledger ledger;
        sim::run(trace, online, &ledger);
        for (const auto &[pc, sel] : oracle.branches()) {
            if (sel.chosen[size - 1].empty())
                continue; // online falls back to a bare counter there
            EXPECT_EQ(ledger.branch(pc).correct, sel.correct[size - 1])
                << "pc=0x" << std::hex << pc << std::dec
                << " size=" << size;
        }
    }
}

TEST(Oracle, MixedBenchmarkOnlineReplayConsistency)
{
    // Same exactness check on a full synthetic benchmark (loops, calls,
    // backward jumps — everything the window bookkeeping must track).
    auto trace = workload::makeBenchmarkTrace("xlisp", 30000, 0);
    OracleConfig config;
    SelectiveOracle oracle(trace, config);
    SelectivePredictor online(oracle.selectionMap(3),
                              config.historyDepth);
    sim::Ledger ledger;
    sim::run(trace, online, &ledger);
    uint64_t mismatched = 0;
    for (const auto &[pc, sel] : oracle.branches()) {
        if (sel.chosen[2].empty())
            continue;
        if (ledger.branch(pc).correct != sel.correct[2])
            ++mismatched;
    }
    EXPECT_EQ(mismatched, 0u);
}

TEST(Oracle, PhaseTelemetryTimesEachPhaseOnce)
{
    // With telemetry on, one oracle adds one CPU-time sample to each
    // phase histogram and selects exactly what an untimed oracle does.
    auto trace = workload::makeBenchmarkTrace("xlisp", 20000, 0);
    OracleConfig config;
    SelectiveOracle quiet(trace, config);
    obs::Registry::instance().reset();
    obs::setEnabled(true);
    SelectiveOracle timed(trace, config);
    obs::Snapshot snap = obs::Registry::instance().snapshot();
    obs::setEnabled(false);
    obs::Registry::instance().reset();

    const obs::Ids &ids = obs::ids();
    double total = 0.0;
    for (obs::InstrumentId id : {ids.simPhaseOracleMineCpuSeconds,
                                 ids.simPhaseOracleRecordCpuSeconds,
                                 ids.simPhaseOracleSelectCpuSeconds}) {
        EXPECT_EQ(snap.values.at(id).count, 1u);
        EXPECT_GE(snap.values.at(id).sum, 0.0);
        total += snap.values.at(id).sum;
    }
    EXPECT_GT(total, 0.0);
    for (unsigned size = 1; size <= 3; ++size)
        EXPECT_EQ(quiet.accuracyPercent(size), timed.accuracyPercent(size));
}

TEST(OracleDeath, ConfigBoundsEnforced)
{
    auto trace = workload::biasedTrace(0x100, 0.5, 10, 1);
    OracleConfig config;
    config.candidatePool = 16; // packing limit is 15
    EXPECT_EXIT(SelectiveOracle(trace, config),
                ::testing::ExitedWithCode(1), "candidate pool");
    OracleConfig config2;
    config2.maxSelect = 4;
    EXPECT_EXIT(SelectiveOracle(trace, config2),
                ::testing::ExitedWithCode(1), "maxSelect");
}

} // namespace
} // namespace copra::core
