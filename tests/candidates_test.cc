/**
 * @file
 * Unit tests for correlation candidate mining and information-gain
 * scoring (the first phase of the selective-history oracle).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "check/record_check.hpp"
#include "core/candidates.hpp"
#include "core/oracle.hpp"
#include "util/rng.hpp"
#include "workload/patterns.hpp"

namespace copra::core {
namespace {

TEST(InformationGain, PerfectCorrelationGivesFullEntropy)
{
    BranchCandidates branch;
    branch.execsTaken = 500;
    branch.execsNotTaken = 500;
    Contingency tag;
    tag.present[1][1] = 500; // tag taken -> branch taken
    tag.present[0][0] = 500; // tag not taken -> branch not taken
    EXPECT_NEAR(CandidateMiner::informationGain(branch, tag), 1.0, 1e-9);
}

TEST(InformationGain, IndependenceGivesZero)
{
    BranchCandidates branch;
    branch.execsTaken = 400;
    branch.execsNotTaken = 400;
    Contingency tag;
    tag.present[1][1] = 200;
    tag.present[1][0] = 200;
    tag.present[0][1] = 200;
    tag.present[0][0] = 200;
    EXPECT_NEAR(CandidateMiner::informationGain(branch, tag), 0.0, 1e-9);
}

TEST(InformationGain, NotInPathStateCarriesInformation)
{
    // The tag is present in half the executions; presence alone
    // determines the branch (paper Fig. 2 in-path correlation).
    BranchCandidates branch;
    branch.execsTaken = 300;
    branch.execsNotTaken = 300;
    Contingency tag;
    tag.present[1][1] = 150; // when present (either direction): taken
    tag.present[0][1] = 150;
    // Absent executions (300) are all not-taken: derived internally.
    EXPECT_NEAR(CandidateMiner::informationGain(branch, tag), 1.0, 1e-9);
}

TEST(InformationGain, BiasedBranchHasLittleToGain)
{
    BranchCandidates branch;
    branch.execsTaken = 990;
    branch.execsNotTaken = 10;
    Contingency tag;
    tag.present[1][1] = 495;
    tag.present[0][1] = 495;
    tag.present[1][0] = 5;
    tag.present[0][0] = 5;
    EXPECT_LT(CandidateMiner::informationGain(branch, tag), 0.1);
}

TEST(CandidateMiner, FindsThePerfectCorrelationCandidate)
{
    auto trace = workload::correlatedPairTrace(0x100, 0x200, 0.5, 1.0,
                                               5000, 3);
    CandidateMiner miner(16);
    miner.mine(trace);

    auto top = miner.topCandidates(0x200, 3);
    ASSERT_FALSE(top.empty());
    // The best candidate must be the most recent instance of Y.
    EXPECT_EQ(top[0].tag.pc(), 0x100u);
    EXPECT_EQ(top[0].tag.num(), 0u);
    EXPECT_GT(top[0].gain, 0.9);
}

TEST(CandidateMiner, IndependentBranchesScoreNearZero)
{
    auto a = workload::biasedTrace(0x100, 0.5, 4000, 1);
    auto b = workload::biasedTrace(0x200, 0.5, 4000, 2);
    auto trace = workload::interleave({a, b});
    CandidateMiner miner(8);
    miner.mine(trace);
    for (const auto &cand : miner.topCandidates(0x200, 5))
        EXPECT_LT(cand.gain, 0.05);
}

TEST(CandidateMiner, TracksExecutionTotals)
{
    auto trace = workload::biasedTrace(0x100, 0.75, 1000, 9);
    CandidateMiner miner(8);
    miner.mine(trace);
    const BranchCandidates *bc = miner.branch(0x100);
    ASSERT_NE(bc, nullptr);
    EXPECT_EQ(bc->execs(), 1000u);
    EXPECT_NEAR(static_cast<double>(bc->execsTaken) / bc->execs(), 0.75,
                0.05);
    EXPECT_EQ(miner.branch(0x999), nullptr);
}

TEST(CandidateMiner, PrefixLimitsMining)
{
    auto trace = workload::biasedTrace(0x100, 0.5, 1000, 9);
    CandidateMiner miner(8);
    miner.mine(trace, 100);
    EXPECT_EQ(miner.branch(0x100)->execs(), 100u);
}

TEST(CandidateMiner, PerBranchCapStopsNewTags)
{
    // Many distinct predecessor branches, tiny cap.
    trace::Trace t("many");
    Rng rng(4);
    for (int i = 0; i < 3000; ++i) {
        uint64_t pred_pc = 0x1000 + 4 * (i % 500);
        t.append({pred_pc, pred_pc + 64, trace::BranchKind::Conditional,
                  rng.bernoulli(0.5)});
        t.append({0x100, 0x180, trace::BranchKind::Conditional,
                  rng.bernoulli(0.5)});
    }
    CandidateMiner miner(8, 16);
    miner.mine(t);
    const BranchCandidates *bc = miner.branch(0x100);
    ASSERT_NE(bc, nullptr);
    EXPECT_EQ(bc->tags.size(), 16u);
    EXPECT_TRUE(bc->capped);

    // The kept tags are exactly the first 16 distinct tags in collect()
    // order over the branch's executions; the 17th was dropped.
    HistoryWindow window(8);
    std::vector<TagState> collected;
    std::vector<Tag> first;
    for (const auto &rec : t.records()) {
        if (rec.isConditional() && rec.pc == 0x100) {
            window.collect(collected);
            for (const TagState &ts : collected) {
                if (first.size() < 17 &&
                    std::find(first.begin(), first.end(), ts.tag) ==
                        first.end())
                    first.push_back(ts.tag);
            }
        }
        window.push(rec);
    }
    ASSERT_EQ(first.size(), 17u);
    for (size_t i = 0; i < 16; ++i)
        EXPECT_NE(bc->tags.find(first[i].packed), nullptr) << "tag " << i;
    EXPECT_EQ(bc->tags.find(first[16].packed), nullptr);
}

TEST(TagTable, InsertFindAndVisitEveryTag)
{
    // Enough tags to force several doublings, plus the all-zero tag that
    // lives outside the slot array.
    TagTable table;
    std::vector<Tag> tags = {Tag(0, TagMethod::Occurrence, 0)};
    for (uint64_t i = 1; i < 300; ++i)
        tags.push_back(Tag(0x40 * i, TagMethod(i & 1), uint8_t(i)));
    for (size_t i = 0; i < tags.size(); ++i) {
        EXPECT_EQ(table.find(tags[i].packed), nullptr);
        table.insert(tags[i].packed).present[1][0] = static_cast<uint32_t>(i);
        EXPECT_EQ(table.size(), i + 1);
    }
    for (size_t i = 0; i < tags.size(); ++i) {
        const Contingency *counts = std::as_const(table).find(tags[i].packed);
        ASSERT_NE(counts, nullptr);
        EXPECT_EQ(counts->present[1][0], i);
    }
    EXPECT_EQ(table.find(Tag(0x40, TagMethod::BackwardCount, 9).packed),
              nullptr);
    size_t visited = 0;
    table.forEach([&](uint64_t packed, const Contingency &counts) {
        EXPECT_EQ(tags[counts.present[1][0]].packed, packed);
        ++visited;
    });
    EXPECT_EQ(visited, tags.size());
}

TEST(CandidateMiner, ScoresAreDeterministicallyOrdered)
{
    auto trace = workload::correlatedPairTrace(0x100, 0x200, 0.5, 0.8,
                                               3000, 5);
    CandidateMiner a(16), b(16);
    a.mine(trace);
    b.mine(trace);
    auto ta = a.topCandidates(0x200, 8);
    auto tb = b.topCandidates(0x200, 8);
    ASSERT_EQ(ta.size(), tb.size());
    for (size_t i = 0; i < ta.size(); ++i) {
        EXPECT_EQ(ta[i].tag, tb[i].tag);
        EXPECT_DOUBLE_EQ(ta[i].gain, tb[i].gain);
    }
    // Descending gain.
    for (size_t i = 1; i < ta.size(); ++i)
        EXPECT_LE(ta[i].gain, ta[i - 1].gain);
}

TEST(CandidateMiner, InPathCandidateIsMined)
{
    // Fig. 2: branch V's presence in the path predicts X. The miner
    // must surface a V tag among X's top candidates.
    auto trace = workload::inPathTrace(0x100, 0.5, 0.5, 0.5, 10000, 7);
    CandidateMiner miner(16);
    miner.mine(trace);
    auto top = miner.topCandidates(0x140, 4);
    bool found_v = false;
    for (const auto &cand : top)
        if (cand.tag.pc() == 0x108)
            found_v = true;
    EXPECT_TRUE(found_v);
}

/** Whether two branches' mining statistics agree tag for tag. */
void
expectSameCandidates(const BranchCandidates &want,
                     const BranchCandidates &got)
{
    EXPECT_EQ(got.execsTaken, want.execsTaken);
    EXPECT_EQ(got.execsNotTaken, want.execsNotTaken);
    EXPECT_EQ(got.capped, want.capped);
    ASSERT_EQ(got.tags.size(), want.tags.size());
    want.tags.forEach([&](uint64_t packed, const Contingency &counts) {
        const Contingency *other = got.tags.find(packed);
        ASSERT_NE(other, nullptr) << "tag " << packed;
        for (unsigned t = 0; t < 2; ++t)
            for (unsigned x = 0; x < 2; ++x)
                EXPECT_EQ(other->present[t][x], counts.present[t][x])
                    << "tag " << packed << " [" << t << "][" << x << "]";
    });
}

TEST(CandidateMiner, WindowsRunningThousandsOfTimesKeepExactCounts)
{
    // A self-loop repeats one window thousands of times, far past what
    // a narrow per-window count holds before it spills; every
    // contingency must still equal the collect-and-probe reference's.
    trace::Trace t("hot-loop");
    Rng rng(12);
    for (int round = 0; round < 3; ++round) {
        for (int trip = 0; trip < 2000; ++trip)
            t.append({0x200, 0x1c0, trace::BranchKind::Conditional, true});
        t.append({0x200, 0x1c0, trace::BranchKind::Conditional, false});
        for (int i = 0; i < 40; ++i) {
            t.append({0x300, 0x340, trace::BranchKind::Conditional,
                      rng.bernoulli(0.5)});
        }
    }
    for (unsigned depth : {1u, 4u, 16u}) {
        OracleConfig config;
        config.historyDepth = depth;
        CandidateMiner miner(depth);
        miner.mine(t);
        const std::vector<BranchCandidates> want =
            check::referenceMine(t, config);
        for (size_t id = 0; id < want.size(); ++id) {
            const BranchCandidates *got =
                miner.branch(t.soa().staticPcs()[id]);
            ASSERT_NE(got, nullptr);
            expectSameCandidates(want[id], *got);
        }
        EXPECT_GT(miner.branch(0x200)->execs(), 6000u);
    }
}

TEST(CandidateMiner, MiningAWalkEqualsMiningTheTrace)
{
    // The check module mines through a walk it builds; mining that
    // walk must equal mining the trace, and leave the walk at the
    // prefix's end.
    auto trace = workload::inPathTrace(0x100, 0.5, 0.5, 0.5, 5000, 3);
    CandidateMiner direct(16);
    direct.mine(trace, 3000);
    CandidateMiner walked(16);
    WindowWalk walk(trace.soa(), 16);
    walked.mine(walk, 3000);
    EXPECT_EQ(walk.walked(), 3000u);
    for (uint64_t pc : trace.soa().staticPcs()) {
        const BranchCandidates *want = direct.branch(pc);
        const BranchCandidates *got = walked.branch(pc);
        ASSERT_EQ(want == nullptr, got == nullptr);
        if (want != nullptr)
            expectSameCandidates(*want, *got);
    }
}

TEST(CandidateMinerDeath, MiningTwiceIsABug)
{
    auto trace = workload::biasedTrace(0x100, 0.5, 10, 1);
    CandidateMiner miner(8);
    miner.mine(trace);
    EXPECT_DEATH(miner.mine(trace), "twice");
}

TEST(CandidateMinerDeath, AStartedWalkIsABug)
{
    // Mining counts every window from the walk's first one.
    auto trace = workload::biasedTrace(0x100, 0.5, 100, 1);
    WindowWalk walk(trace.soa(), 8);
    walk.walkTo(50, [](uint32_t) {});
    CandidateMiner miner(8);
    EXPECT_DEATH(miner.mine(walk, 60), "the walk has started");
    CandidateMiner deeper(16);
    EXPECT_DEATH(deeper.mine(walk, 60), "depth differs");
}

} // namespace
} // namespace copra::core
