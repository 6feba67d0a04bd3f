/**
 * @file
 * Unit tests for the 3-valued selective-history machinery and the online
 * selective predictor (paper §3.4).
 */

#include <gtest/gtest.h>

#include "core/selective.hpp"
#include "sim/driver.hpp"
#include "util/rng.hpp"
#include "workload/patterns.hpp"

namespace copra::core {
namespace {

using trace::BranchKind;
using trace::BranchRecord;

TEST(Pow3, Values)
{
    EXPECT_EQ(pow3(0), 1u);
    EXPECT_EQ(pow3(1), 3u);
    EXPECT_EQ(pow3(2), 9u);
    EXPECT_EQ(pow3(3), 27u);
    EXPECT_EQ(pow3(8), 6561u);
}

TEST(StateOf, ThreeValuedEncoding)
{
    std::vector<TagState> collected = {
        {Tag(0x100, TagMethod::Occurrence, 0), true},
        {Tag(0x104, TagMethod::Occurrence, 0), false},
    };
    EXPECT_EQ(stateOf(collected, Tag(0x100, TagMethod::Occurrence, 0)),
              TagOutcome::Taken);
    EXPECT_EQ(stateOf(collected, Tag(0x104, TagMethod::Occurrence, 0)),
              TagOutcome::NotTaken);
    EXPECT_EQ(stateOf(collected, Tag(0x999, TagMethod::Occurrence, 0)),
              TagOutcome::NotInPath);
}

TEST(SelectiveTable, PatternIsRadixThree)
{
    TagOutcome states[3] = {TagOutcome::Taken, TagOutcome::NotInPath,
                            TagOutcome::NotTaken};
    // 2*1 + 0*3 + 1*9 = 11.
    EXPECT_EQ(SelectiveTable::patternOf(states, 3), 11u);
    EXPECT_EQ(SelectiveTable::patternOf(states, 1), 2u);
}

TEST(SelectiveTable, TrainsPerPattern)
{
    SelectiveTable table(1);
    EXPECT_FALSE(table.step(0, true)); // weakly not taken initially
    EXPECT_TRUE(table.step(0, true));
    // Other patterns unaffected.
    EXPECT_FALSE(table.step(1, false));
    EXPECT_FALSE(table.step(2, false));
}

TEST(SelectiveTableDeath, ArityAndPatternBounds)
{
    EXPECT_DEATH(SelectiveTable(0), "arity");
    EXPECT_DEATH(SelectiveTable(9), "arity");
    SelectiveTable table(1);
    EXPECT_DEATH(table.step(3, true), "out of range");
}

TEST(SelectivePredictor, ExploitsPerfectCorrelation)
{
    // X copies Y exactly (p2 = 1.0). Watching Y0 makes X near-perfectly
    // predictable even though Y itself is a coin flip.
    auto trace = workload::correlatedPairTrace(0x100, 0x200, 0.5, 1.0,
                                               5000, 7);
    std::unordered_map<uint64_t, std::vector<Tag>> selections;
    selections[0x200] = {Tag(0x100, TagMethod::Occurrence, 0)};

    SelectivePredictor pred(std::move(selections), 16);
    sim::Ledger ledger;
    sim::run(trace, pred, &ledger);
    EXPECT_GT(100.0 * ledger.branch(0x200).accuracy(), 99.0);
    // Y itself falls back to a bare counter: ~50%.
    EXPECT_LT(100.0 * ledger.branch(0x100).accuracy(), 60.0);
}

TEST(SelectivePredictor, PartialCorrelationBeatsBias)
{
    // X = cond1 AND cond2 with p1 = 0.5, p2 = 0.9: X is taken 45% of
    // the time (static ceiling 55%), but knowing Y splits it into a
    // certain half (Y not taken => X not taken) and a 90% half
    // (Y taken => X = cond2): ceiling 95%.
    auto trace = workload::correlatedPairTrace(0x100, 0x200, 0.5, 0.9,
                                               20000, 11);
    std::unordered_map<uint64_t, std::vector<Tag>> selections;
    selections[0x200] = {Tag(0x100, TagMethod::Occurrence, 0)};

    SelectivePredictor pred(std::move(selections), 16);
    sim::Ledger ledger;
    sim::run(trace, pred, &ledger);
    double acc = 100.0 * ledger.branch(0x200).accuracy();
    EXPECT_GT(acc, 90.0);
    EXPECT_LT(acc, 97.0);
}

TEST(SelectivePredictor, UnselectedBranchDegeneratesToCounter)
{
    auto trace = workload::biasedTrace(0x300, 0.95, 2000, 5);
    SelectivePredictor pred({}, 16);
    auto result = sim::run(trace, pred);
    EXPECT_GT(result.accuracyPercent(), 90.0);
}

TEST(SelectivePredictor, NotInPathStateIsInformative)
{
    // Branch V appears in the path only when X will be taken (the
    // paper's Fig. 2 in-path correlation). Watching V alone — mostly
    // through its *absence* — must beat X's bias.
    auto trace = workload::inPathTrace(0x100, 0.5, 0.5, 0.5, 20000, 13);
    std::unordered_map<uint64_t, std::vector<Tag>> selections;
    // pc_v = base + 8; X = base + 64. The backward-count tag (method B,
    // instance 0) means "V executed in the current iteration", which is
    // exactly the in-path signal; an occurrence tag would also match
    // stale V instances from earlier iterations still in the window.
    selections[0x140] = {Tag(0x108, TagMethod::BackwardCount, 0)};

    SelectivePredictor pred(std::move(selections), 16);
    sim::Ledger ledger;
    sim::run(trace, pred, &ledger);
    // X = cond1 && cond2 is taken 25% (bias ceiling 75%); V in path
    // implies X taken, V absent implies X very likely not taken:
    // watching V yields 100% when present (25%) and 100% when absent
    // (75%, since V absent <=> X not taken here). Near-perfect.
    EXPECT_GT(100.0 * ledger.branch(0x140).accuracy(), 95.0);
}

TEST(SelectivePredictor, TwoBranchHistoryRefinesOne)
{
    // X = Y1 AND Y2 (independent coins): one watched branch gives
    // ~75-87%, two give ~100%.
    trace::Trace t("and2");
    Rng rng(3);
    for (int i = 0; i < 20000; ++i) {
        bool c1 = rng.bernoulli(0.5);
        bool c2 = rng.bernoulli(0.5);
        t.append({0x100, 0x180, BranchKind::Conditional, c1});
        t.append({0x104, 0x180, BranchKind::Conditional, c2});
        t.append({0x108, 0x180, BranchKind::Conditional, c1 && c2});
    }

    std::unordered_map<uint64_t, std::vector<Tag>> one;
    one[0x108] = {Tag(0x100, TagMethod::Occurrence, 0)};
    SelectivePredictor pred1(std::move(one), 16);
    sim::Ledger ledger1;
    sim::run(t, pred1, &ledger1);

    std::unordered_map<uint64_t, std::vector<Tag>> two;
    two[0x108] = {Tag(0x100, TagMethod::Occurrence, 0),
                  Tag(0x104, TagMethod::Occurrence, 0)};
    SelectivePredictor pred2(std::move(two), 16);
    sim::Ledger ledger2;
    sim::run(t, pred2, &ledger2);

    double acc1 = 100.0 * ledger1.branch(0x108).accuracy();
    double acc2 = 100.0 * ledger2.branch(0x108).accuracy();
    EXPECT_GT(acc2, 99.0);
    EXPECT_GT(acc2, acc1 + 8.0);
}

TEST(SelectivePredictor, NameMentionsDepth)
{
    SelectivePredictor pred({}, 12);
    EXPECT_EQ(pred.name(), "selective(n=12)");
}

} // namespace
} // namespace copra::core
