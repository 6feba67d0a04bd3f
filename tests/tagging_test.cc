/**
 * @file
 * Unit tests for branch-instance tagging and the history window
 * (paper §3.2).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/selective.hpp"
#include "core/tagging.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace copra::core {
namespace {

using trace::BranchKind;
using trace::BranchRecord;

BranchRecord
cond(uint64_t pc, bool taken, uint64_t target = 0)
{
    return {pc, target ? target : pc + 64, BranchKind::Conditional, taken};
}

/** Find a tag's state in a collected window; nullptr if absent. */
const TagState *
find(const std::vector<TagState> &collected, const Tag &tag)
{
    for (const auto &ts : collected)
        if (ts.tag == tag)
            return &ts;
    return nullptr;
}

TEST(Tag, PackAndUnpack)
{
    Tag t(0x12345678, TagMethod::BackwardCount, 37);
    EXPECT_EQ(t.pc(), 0x12345678u);
    EXPECT_EQ(t.method(), TagMethod::BackwardCount);
    EXPECT_EQ(t.num(), 37u);

    Tag o(0x12345678, TagMethod::Occurrence, 37);
    EXPECT_NE(t, o);
    EXPECT_EQ(o.method(), TagMethod::Occurrence);
}

TEST(HistoryWindow, OccurrenceNumberingCountsFromCurrent)
{
    // Execute A, B, A; the window should tag the newer A as A0 and the
    // older as A1 (paper §3.2 method one).
    HistoryWindow w(8);
    w.push(cond(0xA0, true));
    w.push(cond(0xB0, false));
    w.push(cond(0xA0, false));

    std::vector<TagState> collected;
    w.collect(collected);

    auto *a0 = find(collected, Tag(0xA0, TagMethod::Occurrence, 0));
    ASSERT_NE(a0, nullptr);
    EXPECT_FALSE(a0->taken); // most recent A was not taken

    auto *a1 = find(collected, Tag(0xA0, TagMethod::Occurrence, 1));
    ASSERT_NE(a1, nullptr);
    EXPECT_TRUE(a1->taken); // older A was taken

    auto *b0 = find(collected, Tag(0xB0, TagMethod::Occurrence, 0));
    ASSERT_NE(b0, nullptr);
    EXPECT_FALSE(b0->taken);
}

TEST(HistoryWindow, BackwardCountTagsIterations)
{
    // A loop: body branch B, then taken backward branch L, repeated.
    // After two full iterations, B from the previous iteration carries
    // backward-count 1 and the current iteration's B carries 0.
    HistoryWindow w(8);
    w.push(cond(0xB0, true));              // iter 1 body
    w.push(cond(0x200, true, 0x100));      // taken backward: iter boundary
    w.push(cond(0xB0, false));             // iter 2 body

    std::vector<TagState> collected;
    w.collect(collected);

    auto *b_now = find(collected, Tag(0xB0, TagMethod::BackwardCount, 0));
    ASSERT_NE(b_now, nullptr);
    EXPECT_FALSE(b_now->taken);

    auto *b_prev = find(collected, Tag(0xB0, TagMethod::BackwardCount, 1));
    ASSERT_NE(b_prev, nullptr);
    EXPECT_TRUE(b_prev->taken);
}

TEST(HistoryWindow, NotTakenBackwardBranchIsNotABoundary)
{
    HistoryWindow w(8);
    w.push(cond(0x200, false, 0x100)); // backward but not taken
    EXPECT_EQ(w.backwardEpoch(), 0u);
    w.push(cond(0x200, true, 0x100));
    EXPECT_EQ(w.backwardEpoch(), 1u);
}

TEST(HistoryWindow, BackwardJumpAdvancesEpoch)
{
    HistoryWindow w(8);
    w.push({0x200, 0x100, BranchKind::Jump, true});
    EXPECT_EQ(w.backwardEpoch(), 1u);
    // Forward jumps do not.
    w.push({0x100, 0x200, BranchKind::Jump, true});
    EXPECT_EQ(w.backwardEpoch(), 1u);
}

TEST(HistoryWindow, CallsAndReturnsAreTransparent)
{
    HistoryWindow w(4);
    w.push(cond(0x100, true));
    w.push({0x104, 0x50, BranchKind::Call, true});   // backward-looking
    w.push({0x54, 0x108, BranchKind::Return, true});
    EXPECT_EQ(w.backwardEpoch(), 0u);
    EXPECT_EQ(w.size(), 1u);
}

TEST(HistoryWindow, DepthEvictsOldest)
{
    HistoryWindow w(2);
    w.push(cond(0x100, true));
    w.push(cond(0x104, true));
    w.push(cond(0x108, true));
    EXPECT_EQ(w.size(), 2u);

    std::vector<TagState> collected;
    w.collect(collected);
    EXPECT_EQ(find(collected, Tag(0x100, TagMethod::Occurrence, 0)),
              nullptr);
    EXPECT_NE(find(collected, Tag(0x108, TagMethod::Occurrence, 0)),
              nullptr);
}

TEST(HistoryWindow, MethodBDeduplicationKeepsMostRecent)
{
    // Two executions of the same branch inside one iteration produce the
    // same method-B tag; the newer outcome must win.
    HistoryWindow w(8);
    w.push(cond(0xB0, true));
    w.push(cond(0xB0, false)); // same branch, same epoch
    std::vector<TagState> collected;
    w.collect(collected);

    auto *b = find(collected, Tag(0xB0, TagMethod::BackwardCount, 0));
    ASSERT_NE(b, nullptr);
    EXPECT_FALSE(b->taken); // the most recent execution

    // Method A still distinguishes the two.
    EXPECT_NE(find(collected, Tag(0xB0, TagMethod::Occurrence, 0)),
              nullptr);
    EXPECT_NE(find(collected, Tag(0xB0, TagMethod::Occurrence, 1)),
              nullptr);
}

TEST(HistoryWindow, BothMethodsReportedPerEntry)
{
    HistoryWindow w(4);
    w.push(cond(0x100, true));
    std::vector<TagState> collected;
    w.collect(collected);
    EXPECT_EQ(collected.size(), 2u); // one entry, two tagging methods
}

TEST(HistoryWindow, CollectOrdersNewestFirst)
{
    HistoryWindow w(4);
    w.push(cond(0x100, true));
    w.push(cond(0x104, false));
    std::vector<TagState> collected;
    w.collect(collected);
    ASSERT_GE(collected.size(), 2u);
    EXPECT_EQ(collected[0].tag.pc(), 0x104u);
}

TEST(HistoryWindow, ClearForgets)
{
    HistoryWindow w(4);
    w.push(cond(0x100, true));
    w.push({0x200, 0x100, BranchKind::Jump, true});
    w.clear();
    EXPECT_EQ(w.size(), 0u);
    EXPECT_EQ(w.backwardEpoch(), 0u);
    std::vector<TagState> collected;
    w.collect(collected);
    EXPECT_TRUE(collected.empty());
}

TEST(HistoryWindow, EpochOverflowPastWindowClampsTag)
{
    // A branch executed 300 iterations ago exceeds the 8-bit instance
    // number; it must simply not be reported by method B.
    HistoryWindow w(4);
    w.push(cond(0xB0, true));
    for (int i = 0; i < 300; ++i)
        w.push({0x200, 0x100, BranchKind::Jump, true});
    std::vector<TagState> collected;
    w.collect(collected);
    for (const auto &ts : collected) {
        if (ts.tag.method() == TagMethod::BackwardCount) {
            EXPECT_NE(ts.tag.pc(), 0xB0u);
        }
    }
    // Method A is unaffected by the elapsed iterations.
    EXPECT_NE(find(collected, Tag(0xB0, TagMethod::Occurrence, 0)),
              nullptr);
}

/**
 * The original O(depth^2) window, kept verbatim as the reference for
 * HistoryWindow::collect: per entry it rescans the newer entries for
 * the occurrence index and the output for a method-B duplicate.
 */
class ReferenceWindow
{
  public:
    explicit ReferenceWindow(unsigned depth) : depth_(depth), ring_(depth) {}

    void
    push(const BranchRecord &rec)
    {
        switch (rec.kind) {
          case BranchKind::Conditional:
            ring_[head_] = {rec.pc, backwardEpoch_, rec.taken};
            head_ = (head_ + 1) % depth_;
            if (count_ < depth_)
                ++count_;
            if (rec.taken && rec.isBackward())
                ++backwardEpoch_;
            break;
          case BranchKind::Jump:
            if (rec.isBackward())
                ++backwardEpoch_;
            break;
          case BranchKind::Call:
          case BranchKind::Return:
            break;
        }
    }

    void
    collect(std::vector<TagState> &out) const
    {
        out.clear();
        for (unsigned i = 0; i < count_; ++i) {
            unsigned slot = (head_ + depth_ - 1 - i) % depth_;
            const Entry &entry = ring_[slot];

            unsigned occurrence = 0;
            for (unsigned j = 0; j < i; ++j) {
                unsigned newer = (head_ + depth_ - 1 - j) % depth_;
                if (ring_[newer].pc == entry.pc)
                    ++occurrence;
            }
            if (occurrence <= 0xff) {
                out.push_back({Tag(entry.pc, TagMethod::Occurrence,
                                   static_cast<uint8_t>(occurrence)),
                               entry.taken});
            }

            uint64_t back = backwardEpoch_ - entry.epoch;
            if (back <= 0xff) {
                Tag tag_b(entry.pc, TagMethod::BackwardCount,
                          static_cast<uint8_t>(back));
                bool duplicate = false;
                for (const TagState &prior : out) {
                    if (prior.tag == tag_b) {
                        duplicate = true;
                        break;
                    }
                }
                if (!duplicate)
                    out.push_back({tag_b, entry.taken});
            }
        }
    }

  private:
    struct Entry
    {
        uint64_t pc;
        uint64_t epoch;
        bool taken;
    };

    unsigned depth_;
    unsigned count_ = 0;
    unsigned head_ = 0;
    uint64_t backwardEpoch_ = 0;
    std::vector<Entry> ring_;
};

/**
 * A random record over a small pc pool: conditionals either way and in
 * both directions, backward and forward jumps, calls and returns, and
 * occasional long runs of backward jumps that push method-B instance
 * numbers past 0xff.
 */
std::vector<BranchRecord>
randomRecords(Rng &rng, unsigned pcs)
{
    uint64_t pc = 0x1000 + 4 * rng.range(0, pcs - 1);
    uint64_t back_target = pc - 0x40;
    uint64_t fwd_target = pc + 0x40;
    switch (rng.range(0, 9)) {
      case 0:
        return {{pc, back_target, BranchKind::Jump, true}};
      case 1:
        return {{pc, fwd_target, BranchKind::Jump, true}};
      case 2:
        return {{pc, fwd_target, BranchKind::Call, true}};
      case 3:
        return {{pc, back_target, BranchKind::Return, true}};
      case 4:
        if (rng.bernoulli(0.1)) {
            return std::vector<BranchRecord>(
                rng.range(250, 300), {pc, back_target, BranchKind::Jump,
                                      true});
        }
        return {{pc, back_target, BranchKind::Conditional,
                 rng.bernoulli(0.5)}};
      case 5:
      case 6:
        return {{pc, back_target, BranchKind::Conditional,
                 rng.bernoulli(0.7)}};
      default:
        return {{pc, fwd_target, BranchKind::Conditional,
                 rng.bernoulli(0.5)}};
    }
}

TEST(HistoryWindow, CollectMatchesReferenceElementByElement)
{
    Rng rng(2024);
    for (unsigned depth : {1u, 2u, 8u, 16u, 32u, 64u}) {
        for (unsigned pcs : {1u, 3u, 12u, 80u}) {
            HistoryWindow window(depth);
            ReferenceWindow reference(depth);
            std::vector<TagState> got, want;
            std::vector<uint64_t> epochs; // per conditional, at entry
            bool saw_wide_back = false;
            for (int step = 0; step < 3000; ++step) {
                for (const BranchRecord &rec : randomRecords(rng, pcs)) {
                    if (rec.isConditional()) {
                        window.collect(got);
                        reference.collect(want);
                        ASSERT_EQ(got.size(), want.size())
                            << "depth=" << depth << " pcs=" << pcs
                            << " step=" << step;
                        for (size_t i = 0; i < got.size(); ++i) {
                            ASSERT_EQ(got[i].tag, want[i].tag)
                                << "depth=" << depth << " pcs=" << pcs
                                << " step=" << step << " i=" << i;
                            ASSERT_EQ(got[i].taken, want[i].taken);
                        }
                        // Is the oldest windowed entry more than 0xff
                        // backward transfers old?
                        size_t oldest = epochs.size() > depth
                            ? epochs.size() - depth : 0;
                        if (!epochs.empty() &&
                            window.backwardEpoch() - epochs[oldest] > 0xff)
                            saw_wide_back = true;
                        epochs.push_back(window.backwardEpoch());
                    }
                    window.push(rec);
                    reference.push(rec);
                }
            }
            EXPECT_TRUE(saw_wide_back) << "depth=" << depth
                                       << " pcs=" << pcs;
        }
    }
}

/** A trace holding @p records, in order. */
trace::Trace
traceOf(const std::vector<BranchRecord> &records)
{
    trace::Trace t("window-walk");
    for (const BranchRecord &rec : records)
        t.append(rec);
    return t;
}

/** @p n backward jumps: each advances the method-B epoch once. */
std::vector<BranchRecord>
jumps(size_t n)
{
    return std::vector<BranchRecord>(n, {0x900, 0x800, BranchKind::Jump,
                                         true});
}

/** The steps @p walk walks to @p conditionals (0 = the end). */
std::vector<uint32_t>
stepsOf(WindowWalk &walk, uint64_t conditionals = 0)
{
    std::vector<uint32_t> steps;
    walk.walkTo(conditionals, [&](uint32_t step) { steps.push_back(step); });
    return steps;
}

/** The window ids of the rest of a walk, in trace order. */
std::vector<uint32_t>
windowIds(WindowWalk &walk)
{
    std::vector<uint32_t> ids;
    for (uint32_t step : stepsOf(walk))
        ids.push_back(step >> 1);
    return ids;
}

TEST(WindowWalk, EveryFillLevelIsItsOwnWindow)
{
    // One forward branch, over and over: the windows differ only in
    // how many entries they hold until the window fills, then repeat.
    for (unsigned depth : {1u, 4u, 16u}) {
        std::vector<BranchRecord> records(3 * depth, cond(0x100, true));
        trace::Trace t = traceOf(records);
        WindowWalk walk(t.soa(), depth);
        const std::vector<uint32_t> ids = windowIds(walk);
        ASSERT_EQ(ids.size(), records.size());
        EXPECT_EQ(walk.windowCount(), depth + 1u) << "depth=" << depth;
        for (size_t k = 0; k < ids.size(); ++k) {
            const uint32_t want = static_cast<uint32_t>(
                std::min<size_t>(k, depth));
            EXPECT_EQ(ids[k], want) << "depth=" << depth << " k=" << k;
            EXPECT_EQ(walk.fill(ids[k]), want);
            EXPECT_EQ(walk.branch(ids[k]), 0u);
        }
    }
}

TEST(WindowWalk, BackDistance255IsNot256)
{
    // B sees A 255, 256 and 257 backward transfers old. At 255 A has a
    // method-B tag; at 256 and past it has none, so those two windows
    // are one window and the 255 one is another.
    std::vector<BranchRecord> records;
    for (size_t n : {255u, 256u, 257u, 255u}) {
        records.push_back(cond(0x100, true));
        for (const BranchRecord &j : jumps(n))
            records.push_back(j);
        records.push_back(cond(0x200, true));
    }
    trace::Trace t = traceOf(records);
    WindowWalk walk(t.soa(), 1);
    const std::vector<uint32_t> ids = windowIds(walk);
    ASSERT_EQ(ids.size(), 8u);
    // B's windows are steps 1, 3, 5 and 7.
    EXPECT_NE(ids[1], ids[3]);
    EXPECT_EQ(ids[3], ids[5]);
    EXPECT_EQ(ids[1], ids[7]);
    EXPECT_EQ(WindowWalk::entryBack(walk.entries(ids[1])[0]), 255u);
    EXPECT_EQ(WindowWalk::entryBack(walk.entries(ids[3])[0]), 256u);

    // A distance cap of 255 (the planted check defect) merges them.
    WindowWalk capped(t.soa(), 1, 255);
    const std::vector<uint32_t> merged = windowIds(capped);
    EXPECT_EQ(merged[1], merged[3]);
}

TEST(WindowWalk, EqualIdListsWithOtherDistancesDiffer)
{
    // C sees the same branches, A then B, in the same order each time;
    // only the loop closings between them differ.
    std::vector<BranchRecord> records;
    for (size_t between : {0u, 1u, 0u, 2u}) {
        records.push_back(cond(0x100, true));
        for (const BranchRecord &j : jumps(between))
            records.push_back(j);
        records.push_back(cond(0x200, false));
        records.push_back(cond(0x300, true));
    }
    trace::Trace t = traceOf(records);
    WindowWalk walk(t.soa(), 2);
    const std::vector<uint32_t> ids = windowIds(walk);
    ASSERT_EQ(ids.size(), 12u);
    // C's windows are steps 2, 5, 8 and 11: [B, A] each time.
    std::vector<uint32_t> c = {ids[2], ids[5], ids[8], ids[11]};
    for (uint32_t w : c) {
        ASSERT_EQ(walk.fill(w), 2u);
        EXPECT_EQ(WindowWalk::entryId(walk.entries(w)[0]), 1u);
        EXPECT_EQ(WindowWalk::entryId(walk.entries(w)[1]), 0u);
    }
    EXPECT_NE(c[0], c[1]);
    EXPECT_EQ(c[0], c[2]);
    EXPECT_NE(c[0], c[3]);
    EXPECT_NE(c[1], c[3]);
}

TEST(WindowWalk, ResumingEqualsOneWalk)
{
    Rng rng(5);
    std::vector<BranchRecord> records;
    for (int step = 0; step < 2000; ++step)
        for (const BranchRecord &rec : randomRecords(rng, 12))
            records.push_back(rec);
    trace::Trace t = traceOf(records);
    WindowWalk whole(t.soa(), 16);
    const std::vector<uint32_t> want = stepsOf(whole);
    WindowWalk parts(t.soa(), 16);
    std::vector<uint32_t> got;
    for (uint64_t stop : {1u, 17u, 500u, 500u, 501u}) {
        for (uint32_t step : stepsOf(parts, stop))
            got.push_back(step);
    }
    EXPECT_EQ(got.size(), 501u);
    EXPECT_EQ(parts.walked(), 501u);
    for (uint32_t step : stepsOf(parts))
        got.push_back(step);
    EXPECT_EQ(got, want);
    EXPECT_EQ(parts.windowCount(), whole.windowCount());
}

TEST(WindowWalk, TagsMatchCollectForEveryWindow)
{
    // A window id stands for every execution that sees it, the first
    // one included: the tags forEachTag() lists from the stored key,
    // with each entry's outcome read from the outcome history, must be
    // collect()'s list for each execution, element by element.
    Rng rng(77);
    for (unsigned depth : {1u, 2u, 16u, 64u}) {
        for (unsigned pcs : {1u, 5u, 40u}) {
            // Random records, and every so often a self-loop longer
            // than the deepest window, where windows recur.
            std::vector<BranchRecord> records;
            for (int step = 0; step < 2000; ++step) {
                for (const BranchRecord &rec : randomRecords(rng, pcs))
                    records.push_back(rec);
                if (step % 200 == 0) {
                    const size_t trips = rng.range(70, 100);
                    for (size_t trip = 0; trip < trips; ++trip)
                        records.push_back(cond(0x2000, true, 0x1f00));
                    records.push_back(cond(0x2000, false, 0x1f00));
                }
            }
            trace::Trace t = traceOf(records);
            const trace::SoABlocks &soa = t.soa();
            WindowWalk walk(soa, depth);
            const std::vector<uint32_t> steps = stepsOf(walk);

            HistoryWindow window(depth);
            std::vector<TagState> collected;
            std::vector<TagState> listed;
            uint64_t outcomes = 0;
            size_t k = 0;
            for (size_t i = 0; i < soa.size(); ++i) {
                const BranchRecord rec = soa.record(i);
                if (rec.isConditional()) {
                    window.collect(collected);
                    const uint32_t step = steps[k++];
                    listed.clear();
                    walk.forEachTag(step >> 1, [&](unsigned position,
                                                   uint64_t id,
                                                   TagMethod method,
                                                   uint8_t num) {
                        listed.push_back(
                            {Tag(soa.staticPcs()[id], method, num),
                             ((outcomes >> position) & 1) != 0});
                    });
                    ASSERT_EQ(listed.size(), collected.size())
                        << "depth=" << depth << " pcs=" << pcs
                        << " conditional " << k;
                    for (size_t e = 0; e < listed.size(); ++e) {
                        ASSERT_EQ(listed[e].tag, collected[e].tag)
                            << "depth=" << depth << " pcs=" << pcs
                            << " conditional " << k << " tag " << e;
                        ASSERT_EQ(listed[e].taken, collected[e].taken);
                    }
                    outcomes = outcomes << 1 | (step & 1);
                }
                window.push(rec);
            }
            EXPECT_EQ(k, steps.size());
            // One id per distinct key, however the hash table grew.
            std::set<std::vector<uint32_t>> keys;
            for (uint32_t w = 0; w < walk.windowCount(); ++w) {
                std::vector<uint32_t> key = {walk.branch(w), walk.fill(w)};
                key.insert(key.end(), walk.entries(w),
                           walk.entries(w) + walk.fill(w));
                keys.insert(key);
            }
            EXPECT_EQ(keys.size(), walk.windowCount());
            EXPECT_LT(walk.windowCount(), steps.size())
                << "depth=" << depth << " pcs=" << pcs
                << ": no window recurred";
        }
    }
}

TEST(WindowWalkDeath, DepthOutOfRange)
{
    trace::Trace t = traceOf({cond(0x100, true)});
    EXPECT_DEATH(WindowWalk(t.soa(), 0), "depth");
    EXPECT_DEATH(WindowWalk(t.soa(), 65), "depth");
}

class WindowDepths : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(WindowDepths, SizeNeverExceedsDepth)
{
    unsigned depth = GetParam();
    HistoryWindow w(depth);
    std::vector<TagState> collected;
    for (unsigned i = 0; i < 3 * depth; ++i) {
        w.push(cond(0x100 + 4 * (i % 7), i % 2 == 0));
        w.collect(collected);
        EXPECT_LE(w.size(), depth);
        // Both-method enumeration can at most double the entries.
        EXPECT_LE(collected.size(), 2u * depth);
    }
}

INSTANTIATE_TEST_SUITE_P(PaperDepths, WindowDepths,
                         ::testing::Values(1u, 8u, 12u, 16u, 20u, 24u,
                                           28u, 32u, 64u));

} // namespace
} // namespace copra::core
