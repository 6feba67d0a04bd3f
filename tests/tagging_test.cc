/**
 * @file
 * Unit tests for branch-instance tagging and the history window
 * (paper §3.2).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/selective.hpp"
#include "core/tagging.hpp"
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
    for (const auto &ts : collected)
        if (ts.tag.method() == TagMethod::BackwardCount)
            EXPECT_NE(ts.tag.pc(), 0xB0u);
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

TEST(RecordWindow, StatesMatchCollectForEveryTag)
{
    // RecordWindow answers tags by walking an id's occurrence chain.
    // Asked one tag at a time, for every tag collect() lists it must report
    // the same outcome, and for the next instance number of each
    // listed tag's method (one occurrence older, one transfer further)
    // it must report whatever collect() says, usually not-in-path.
    Rng rng(77);
    for (unsigned depth : {1u, 2u, 16u, 64u}) {
        for (unsigned pcs : {1u, 5u, 40u}) {
            HistoryWindow window(depth);
            RecordWindow record(depth, pcs);
            std::map<uint64_t, uint32_t> id_of;
            std::vector<TagState> collected;
            uint64_t in_path = 0;
            for (int step = 0; step < 2000; ++step) {
                for (const BranchRecord &rec : randomRecords(rng, pcs)) {
                    uint32_t id = id_of
                        .emplace(rec.pc, static_cast<uint32_t>(id_of.size()))
                        .first->second;
                    if (rec.isConditional()) {
                        window.collect(collected);
                        for (const TagState &ts : collected) {
                            for (unsigned extra : {0u, 1u}) {
                                unsigned num = ts.tag.num() + extra;
                                if (num > 0xff)
                                    continue;
                                Tag tag(ts.tag.pc(), ts.tag.method(),
                                        static_cast<uint8_t>(num));
                                const IdTag one{id_of.at(tag.pc()),
                                                tag.method(),
                                                static_cast<uint8_t>(num), 0};
                                ASSERT_EQ(static_cast<TagOutcome>(
                                              record.states(&one, 1)),
                                          stateOf(collected, tag))
                                    << "depth=" << depth << " pcs=" << pcs
                                    << " step=" << step << " num=" << num;
                                in_path += extra == 0;
                            }
                        }
                    }
                    window.push(rec);
                    record.push(rec, id);
                }
            }
            EXPECT_GT(in_path, 0u);
        }
    }
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
