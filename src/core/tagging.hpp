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
#include "trace/trace_soa.hpp"
#include "util/page_vector.hpp"

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
 * HistoryWindow and WindowWalk advance their epoch by this one rule.
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

/** One window entry as the tag rule reads it. */
struct WindowEntry
{
    uint64_t key;  //!< names the entry's branch (its pc or its static id)
    uint64_t back; //!< backward transfers since the entry executed
};

/**
 * The tag rule (§3.2), the one enumeration HistoryWindow::collect and
 * the oracle's per-window expansion share. Walks @p count entries
 * newest first, each returned by one call of @p next() as a
 * WindowEntry, and calls @p emit(i, key, method, num) for entry i
 * (0 = newest):
 *
 *  - method A, always: num = how many newer entries share its key;
 *  - method B, then, when back <= 0xff and no newer entry with the same
 *    key had the same back: num = back. The newest instance of a
 *    (key, num) pair is the one reported.
 *
 * One pass with a 128-slot table by key of each key's running
 * occurrence count and last back. `back` never decreases along a
 * newest-first walk, so a key's method-B numbers come out
 * nondecreasing and a duplicate can only repeat the key's previous
 * one: one compare replaces a scan. Depth <= 64 keeps every
 * occurrence number below 0xff. O(count).
 */
inline void
forEachWindowTag(unsigned count, auto next, auto emit) noexcept
{
    constexpr unsigned kMaxEntries = 64;
    constexpr unsigned kIndexSlots = 2 * kMaxEntries;
    static_assert(kIndexSlots == 128, "the probe takes 7 hash bits");
    constexpr uint64_t kNoBack = UINT64_MAX;
    struct Seen
    {
        uint64_t key;
        uint64_t lastBack;
        unsigned occurrences;
    };
    // seen[d] is written before index[] first points at it, so only the
    // small index is zeroed per call.
    Seen seen[kMaxEntries];
    uint8_t index[kIndexSlots] = {}; // 0 = empty, else 1 + seen position
    unsigned distinct = 0;

    for (unsigned i = 0; i < count; ++i) {
        // copra-lint: allow(hot-unresolved) -- the caller's lambda, scanned in its body
        const WindowEntry entry = next();
        unsigned probe = static_cast<unsigned>(
            (entry.key * 0x9e3779b97f4a7c15ull) >> 57);
        while (index[probe] != 0 && seen[index[probe] - 1].key != entry.key)
            probe = (probe + 1) & (kIndexSlots - 1);
        if (index[probe] == 0) {
            seen[distinct] = {entry.key, kNoBack, 0};
            index[probe] = static_cast<uint8_t>(++distinct);
        }
        Seen &key_seen = seen[index[probe] - 1];

        // copra-lint: allow(hot-unresolved) -- the caller's lambda, scanned in its body
        emit(i, entry.key, TagMethod::Occurrence,
             static_cast<uint8_t>(key_seen.occurrences++));
        if (entry.back <= 0xff && entry.back != key_seen.lastBack) {
            key_seen.lastBack = entry.back;
            // copra-lint: allow(hot-unresolved) -- the caller's lambda, scanned in its body
            emit(i, entry.key, TagMethod::BackwardCount,
                 static_cast<uint8_t>(entry.back));
        }
    }
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
     * deduplicated keeping the most recent): forEachWindowTag() over
     * the window's pcs. Clears and fills @p out. O(depth).
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
 * The oracle's one walk over a trace: every conditional gets a window
 * id, the identity of (its static id, the newest-first list of its
 * window's entries). An entry is packed as `id << 9 | min(back, 256)`,
 * the static id of a branch in the window and the backward transfers
 * since it executed, capped one past the largest method-B number. The
 * key determines the window's tags exactly (forEachWindowTag over the
 * entries), so mining and recording can work per distinct window and
 * read each execution's outcomes from the last n outcomes alone.
 *
 * Window ids count up from 0 in order of first appearance. Ids are
 * exact: a hash hit is confirmed by comparing the whole key. Cost per
 * conditional: one probe and one key compare (n + 1 words); the key is
 * kept in place and its hash updated in O(1) per push, and a backward
 * transfer costs one pass over the entries still below the cap. A new
 * window also copies its key. Single-threaded over the suite at 2M
 * branches, depth 16, that is 33-40 ns per conditional; building and
 * hashing the key afresh for each conditional measured 73-88 ns, and
 * 10.6% more CPU on the benchmark's oracle workload. Windows recur: at
 * depth 16, 1.6% of the suite's conditionals at fig4's 2M branches
 * (0.0-9.0% per trace) and 3.4% at 250k (0.0-19.2%) see a window their
 * trace has not produced before. Memory is per distinct window: n + 1 key words and a 64-bit
 * hash slot at most half full, both in mapped pages
 * (util/page_vector.hpp).
 *
 * The walk hands each conditional's step to a visitor and keeps none;
 * it may stop after a prefix and resume from there (walkTo()).
 */
class WindowWalk
{
  public:
    /** Backward distances at or past this share one key value. */
    static constexpr uint32_t kBackCap = 256;

    /**
     * @param soa Trace to walk; must outlive the walk.
     * @param depth Window depth n (1..HistoryWindow::kMaxDepth).
     * @param back_cap Entry distance cap. Ids are exact only above
     *     0xff; the check module plants a lower one as a defect.
     */
    WindowWalk(const trace::SoABlocks &soa, unsigned depth,
               uint32_t back_cap = kBackCap);

    /**
     * Walk on until @p conditionals conditionals have a window id
     * (0 = the whole trace), calling @p visit(step) for each one walked,
     * in trace order. A step is the conditional's window id << 1 | its
     * outcome. Never walks back.
     */
    void
    walkTo(uint64_t conditionals, auto &&visit)
    {
        const uint64_t total = soa_.conditionalCount();
        const uint64_t stop =
            conditionals == 0 || conditionals > total ? total : conditionals;
        while (walked_ < stop)
            visit(advance());
    }

    /** The trace walked. */
    const trace::SoABlocks &soa() const { return soa_; }

    /** Window depth n. */
    unsigned depth() const { return depth_; }

    /** Conditionals walked so far. */
    uint64_t walked() const { return walked_; }

    /** Distinct windows seen so far. */
    size_t windowCount() const { return windows_; }

    /** Static id of the branch that sees @p window. */
    uint32_t
    branch(uint32_t window) const
    {
        return storedKey(window)[0] >> 7;
    }

    /** Entries in @p window (< depth only at the trace start). */
    unsigned
    fill(uint32_t window) const
    {
        return storedKey(window)[0] & 0x7f;
    }

    /** The fill() entries of @p window, newest first. */
    const uint32_t *
    entries(uint32_t window) const
    {
        return storedKey(window) + 1;
    }

    /** Static id of a packed entry. */
    static uint32_t entryId(uint32_t entry) { return entry >> 9; }

    /** Capped backward distance of a packed entry. */
    static uint32_t entryBack(uint32_t entry) { return entry & 0x1ff; }

    /**
     * Call @p emit(position, id, method, num) for every tag of
     * @p window, in forEachWindowTag() order.
     */
    void
    forEachTag(uint32_t window, auto &&emit) const
    {
        const uint32_t *entry = entries(window);
        forEachWindowTag(
            fill(window),
            [&entry] {
                const uint32_t e = *entry++;
                return WindowEntry{entryId(e), entryBack(e)};
            },
            emit);
    }

  private:
    /** The stored key of @p window: header word, then its entries. */
    const uint32_t *
    storedKey(uint32_t window) const noexcept
    {
        return &keys_[window >> kChunkShift]
                     [(window & (kChunkWindows - 1)) * stride_];
    }

    /**
     * The hash of a key before mixing: the header plus the entries as
     * a polynomial, entry j weighted by the j-th power of an odd
     * constant, so a push and a uniform distance step update it in
     * O(1).
     */
    uint64_t rawHash(const uint32_t *key) const noexcept;

    /** Id of the window @p want names (raw hash @p raw), added if new. */
    uint32_t findOrAdd(const uint32_t *want, uint64_t raw);

    /** Add @p delta backward transfers to the window's entries. */
    void age(uint64_t delta) noexcept;

    /** Walk through the next conditional and return its step. */
    uint32_t advance();

    const trace::SoABlocks &soa_;
    unsigned depth_;
    uint32_t backCap_;
    size_t stride_;          // key words per window: header + depth
    size_t next_ = 0;        // next record to walk
    uint64_t walked_ = 0;    // conditionals walked
    uint64_t epoch_ = 0;     // backward transfers walked
    uint64_t agedTo_ = 0;    // epoch_ the entries' distances count to
    // The window, newest first, at buf_[pos_, pos_ + fill_): each push
    // moves pos_ down one, and the key's header goes just below it.
    std::vector<uint32_t> buf_;
    size_t pos_ = 0;
    unsigned fill_ = 0;
    unsigned young_ = 0;     // newest entries with a distance below the cap
    uint64_t entryHash_ = 0; // sum of entry j * power_[j]
    std::vector<uint64_t> power_;  // B^j, j = 0..depth
    std::vector<uint64_t> prefix_; // sum of B^i for i < j, j = 0..depth
    // Keys in fixed chunks of kChunkWindows, so storing one never
    // copies the others.
    static constexpr unsigned kChunkShift = 10;
    static constexpr uint32_t kChunkWindows = 1u << kChunkShift;
    std::vector<PageVector<uint32_t>> keys_;
    size_t windows_ = 0;
    PageVector<uint64_t> slots_;  // hash tag << 32 | window + 1; 0 = empty
};

} // namespace copra::core

