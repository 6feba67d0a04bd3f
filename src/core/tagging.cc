#include "core/tagging.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace copra::core {

HistoryWindow::HistoryWindow(unsigned depth)
    : depth_(depth)
{
    panicIf(depth == 0 || depth > kMaxDepth,
            "history window depth must be 1..64");
    ring_.resize(depth);
}

void
HistoryWindow::push(const trace::BranchRecord &rec) noexcept
{
    if (rec.isConditional()) {
        ring_[head_] = {rec.pc, backwardEpoch_, rec.taken};
        head_ = (head_ + 1) % depth_;
        if (count_ < depth_)
            ++count_;
    }
    if (advancesBackwardEpoch(rec))
        ++backwardEpoch_;
}

void
HistoryWindow::collect(std::vector<TagState> &out) const noexcept
{
    out.clear();
    if (count_ == 0)
        return;
    // Analysis-side tagging window for the selective predictor:
    // capacity stabilizes after the first few collect() calls and the
    // path is outside the runtime hot gates.
    // copra-lint: allow(hot-alloc) -- analysis-side, capacity stabilizes
    out.reserve(2 * count_);

    // One newest-first walk of the ring with a per-pc table of what the
    // walk has seen so far. For method A, the occurrence index of an
    // entry is how many newer entries share its pc: the pc's running
    // count. For method B, the instance number is the backward-transfer
    // count since the entry executed, and only the newest entry per
    // (pc, num) is reported. `back` never decreases along a newest-first
    // walk, so a pc's method-B tags come out in nondecreasing num order
    // and a duplicate can only repeat the pc's previous num: one compare
    // against the table's last back count replaces a scan of the output.
    // Depth <= 64 keeps every occurrence index below 0xff.
    constexpr unsigned kIndexSlots = 2 * kMaxDepth;
    static_assert(kIndexSlots == 128, "the probe takes 7 hash bits");
    constexpr uint64_t kNoBack = UINT64_MAX;
    struct Seen
    {
        uint64_t pc;
        uint64_t lastBack;
        unsigned occurrences;
    };
    // seen[d] is written before index[] first points at it, so only the
    // small index is zeroed per call.
    Seen seen[kMaxDepth];
    uint8_t index[kIndexSlots] = {}; // 0 = empty, else 1 + seen position
    unsigned distinct = 0;

    unsigned slot = head_;
    for (unsigned i = 0; i < count_; ++i) {
        slot = (slot == 0 ? depth_ : slot) - 1;
        const Entry &entry = ring_[slot];

        unsigned probe = static_cast<unsigned>(
            (entry.pc * 0x9e3779b97f4a7c15ull) >> 57);
        while (index[probe] != 0 && seen[index[probe] - 1].pc != entry.pc)
            probe = (probe + 1) & (kIndexSlots - 1);
        if (index[probe] == 0) {
            seen[distinct] = {entry.pc, kNoBack, 0};
            index[probe] = static_cast<uint8_t>(++distinct);
        }
        Seen &pc_seen = seen[index[probe] - 1];

        // copra-lint: allow(hot-alloc) -- within the reserve() above
        out.push_back({Tag(entry.pc, TagMethod::Occurrence,
                           static_cast<uint8_t>(pc_seen.occurrences++)),
                       entry.taken});

        uint64_t back = backwardEpoch_ - entry.epoch;
        if (back <= 0xff && back != pc_seen.lastBack) {
            pc_seen.lastBack = back;
            // copra-lint: allow(hot-alloc) -- within the reserve() above
            out.push_back({Tag(entry.pc, TagMethod::BackwardCount,
                               static_cast<uint8_t>(back)),
                           entry.taken});
        }
    }
}

void
HistoryWindow::clear()
{
    count_ = 0;
    head_ = 0;
    backwardEpoch_ = 0;
}

RecordWindow::RecordWindow(unsigned depth, size_t static_count)
    : depth_(depth), newest_(static_count, 0)
{
    panicIf(depth == 0 || depth > HistoryWindow::kMaxDepth,
            "history window depth must be 1..64");
    size_t slots = 1;
    while (slots < depth)
        slots *= 2;
    ring_.resize(slots);
    mask_ = slots - 1;
}

void
RecordWindow::push(const trace::BranchRecord &rec, uint32_t id) noexcept
{
    if (rec.isConditional()) {
        uint64_t seq = ++pushed_;
        ring_[seq & mask_] = {backwardEpoch_, newest_[id], rec.taken};
        newest_[id] = seq;
    }
    if (advancesBackwardEpoch(rec))
        ++backwardEpoch_;
}

uint32_t
RecordWindow::states(const IdTag *pool, size_t n) const noexcept
{
    uint32_t fields = 0;
    size_t i = 0;
    while (i < n) {
        const uint32_t id = pool[i].id;
        // Method A, ascending num: walk down the chain, counting links.
        uint64_t seq = newest_[id];
        unsigned occurrence = 0;
        for (; i < n && pool[i].id == id &&
             pool[i].method == TagMethod::Occurrence;
             ++i) {
            for (; occurrence < pool[i].num && held(seq); ++occurrence)
                seq = entry(seq).prev;
            if (held(seq))
                fields |= stateBits(entry(seq)) << (2 * pool[i].field);
        }
        // Method B, ascending num: backward distances never shrink
        // along the chain, so the walk stops at the first occurrence at
        // least num transfers old, the tag's newest instance if the
        // distance is exactly num.
        seq = newest_[id];
        for (; i < n && pool[i].id == id; ++i) {
            while (held(seq) &&
                   backwardEpoch_ - entry(seq).epoch < pool[i].num)
                seq = entry(seq).prev;
            if (held(seq) && backwardEpoch_ - entry(seq).epoch ==
                    pool[i].num)
                fields |= stateBits(entry(seq)) << (2 * pool[i].field);
        }
    }
    return fields;
}

void
sortForWalk(std::vector<IdTag> &pool)
{
    std::sort(pool.begin(), pool.end(), [](const IdTag &x, const IdTag &y) {
        if (x.id != y.id)
            return x.id < y.id;
        if (x.method != y.method)
            return x.method < y.method;
        return x.num < y.num;
    });
}

} // namespace copra::core
