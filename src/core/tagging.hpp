/**
 * @file
 * Branch-instance tagging (paper §3.2).
 *
 * To correlate against a *specific dynamic instance* of a prior branch —
 * needed when several iterations of a tight loop fit in the history — the
 * paper tags each history entry with its static address plus an instance
 * number, using two complementary methods:
 *
 *  - Method A (occurrence numbering): the most recent occurrence of
 *    branch A is A0, the next older is A1, and so on.
 *  - Method B (backward-branch counting): the instance number is how many
 *    taken backward control transfers (loop closings) separate it from
 *    the current branch, which identifies "the same branch, k iterations
 *    ago" even when the branch does not execute every iteration.
 *
 * Branches tagged by the two methods are treated as distinct correlation
 * candidates, exactly as in the paper.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/branch_record.hpp"

namespace copra::core {

/** Instance-tagging method. */
enum class TagMethod : uint8_t
{
    Occurrence = 0,    //!< method A: per-pc occurrence index
    BackwardCount = 1, //!< method B: backward branches since execution
};

/**
 * A packed tag identifying one dynamic instance of a prior branch
 * relative to the current branch: pc, method, and instance number.
 * Layout: pc << 9 | method << 8 | num, so tags order and hash cheaply.
 */
struct Tag
{
    uint64_t packed = 0;

    Tag() = default;
    Tag(uint64_t pc, TagMethod method, uint8_t num) noexcept
        : packed((pc << 9) |
                 (static_cast<uint64_t>(method) << 8) | num)
    {
    }

    uint64_t pc() const noexcept { return packed >> 9; }
    TagMethod method() const
    {
        return static_cast<TagMethod>((packed >> 8) & 1);
    }
    uint8_t num() const { return static_cast<uint8_t>(packed & 0xff); }

    bool operator==(const Tag &other) const
    {
        return packed == other.packed;
    }
};

/** A tagged instance observed in the history, with its outcome. */
struct TagState
{
    Tag tag;
    bool taken = false;
};

/** Three-valued state of a tagged instance relative to a prediction. */
enum class TagOutcome : uint8_t
{
    NotInPath = 0,
    NotTaken = 1,
    Taken = 2,
};

/**
 * The method-B iteration boundary: a taken backward conditional branch
 * or a backward unconditional jump. Calls and returns never are. Both
 * windows below advance their epoch by this one rule.
 */
inline bool
advancesBackwardEpoch(const trace::BranchRecord &rec) noexcept
{
    switch (rec.kind) {
      case trace::BranchKind::Conditional:
        return rec.taken && rec.isBackward();
      case trace::BranchKind::Jump:
        return rec.isBackward();
      case trace::BranchKind::Call:
      case trace::BranchKind::Return:
        break;
    }
    return false;
}

/**
 * Sliding window over the last n conditional branches, maintaining the
 * bookkeeping both tagging methods need. Feed it every trace record in
 * order; before consuming a conditional branch, call collect() to
 * enumerate the tagged instances currently in the path.
 */
class HistoryWindow
{
  public:
    /** Largest supported window depth. */
    static constexpr unsigned kMaxDepth = 64;

    /** @param depth Window depth n (the paper uses 8..32). */
    explicit HistoryWindow(unsigned depth);

    /** Window depth n. */
    unsigned depth() const { return depth_; }

    /** Number of entries currently held (< depth until warm). */
    unsigned size() const { return count_; }

    /**
     * Enumerate the tagged instances of the branches in the path,
     * newest first, both tagging methods per entry (method B entries
     * deduplicated keeping the most recent). Clears and fills @p out.
     * One pass over the window: O(depth).
     */
    void collect(std::vector<TagState> &out) const noexcept;

    /**
     * Advance past a record. Conditional branches enter the window;
     * taken backward conditional branches and backward unconditional
     * jumps advance the method-B iteration count. Calls and returns
     * only pass through.
     */
    void push(const trace::BranchRecord &rec) noexcept;

    /** Forget everything. */
    void clear();

    /** Total taken-backward transfers seen (method B epoch). */
    uint64_t backwardEpoch() const { return backwardEpoch_; }

  private:
    struct Entry
    {
        uint64_t pc;
        uint64_t epoch; // backwardEpoch_ when this branch executed
        bool taken;
    };

    unsigned depth_;
    unsigned count_ = 0;
    unsigned head_ = 0; // ring index of the next slot to write
    uint64_t backwardEpoch_ = 0;
    std::vector<Entry> ring_;
};

/**
 * A candidate tag whose branch is named by its static id instead of its
 * pc, with the 2-bit row field its state goes to.
 */
struct IdTag
{
    uint32_t id = 0;
    TagMethod method = TagMethod::Occurrence;
    uint8_t num = 0;
    uint8_t field = 0;
};

/**
 * Sort @p pool into walk order, by (id, method, num), the order
 * RecordWindow::states() reads it in.
 */
void sortForWalk(std::vector<IdTag> &pool);

/**
 * The same n-deep window as HistoryWindow, laid out to answer a few
 * tags instead of listing every tag in the path. Each conditional keeps
 * its epoch and outcome plus a link to the previous occurrence of the
 * same static id, and a per-id slot holds the newest occurrence. A tag
 * is answered by walking its id's chain, newest first:
 *
 *  - method A: the occurrence num links down the chain is the instance;
 *  - method B: the first occurrence at backward distance num is the
 *    instance; reaching a larger distance means it is not in the path.
 *
 * states() answers all of a pool's method-A tags on one id in one walk
 * and its method-B tags in another, each at most n steps, independent
 * of how many other branches share the window. Every tag's state
 * equals core::stateOf(collected, tag) for the window HistoryWindow
 * would hold after the same pushes.
 */
class RecordWindow
{
  public:
    /**
     * @param depth Window depth n (1..HistoryWindow::kMaxDepth).
     * @param static_count Number of static ids pushes may carry.
     */
    RecordWindow(unsigned depth, size_t static_count);

    /** Advance past a record whose static id is @p id. */
    void push(const trace::BranchRecord &rec, uint32_t id) noexcept;

    /**
     * The TagOutcome of each of the @p n tags at @p pool (in
     * sortForWalk() order), each shifted to its 2-bit field and OR-ed
     * together.
     */
    uint32_t states(const IdTag *pool, size_t n) const noexcept;

  private:
    struct Entry
    {
        uint64_t epoch; // backward epoch when this branch executed
        uint64_t prev;  // sequence number of the id's previous occurrence
        bool taken;
    };

    /** Whether sequence number @p seq (1-based; 0 = none) is held. */
    bool
    held(uint64_t seq) const noexcept
    {
        return seq != 0 && seq + depth_ > pushed_;
    }

    const Entry &entry(uint64_t seq) const noexcept
    {
        return ring_[seq & mask_];
    }

    /** The TagOutcome bits of a held occurrence. */
    static uint32_t
    stateBits(const Entry &e) noexcept
    {
        return static_cast<uint32_t>(e.taken ? TagOutcome::Taken
                                             : TagOutcome::NotTaken);
    }

    unsigned depth_;
    uint64_t mask_;        // ring size - 1; the ring holds >= depth_
    uint64_t pushed_ = 0;  // conditionals pushed = newest sequence number
    uint64_t backwardEpoch_ = 0;
    std::vector<Entry> ring_;
    std::vector<uint64_t> newest_; // per id: newest sequence number
};

} // namespace copra::core

