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

    unsigned slot = head_;
    const Entry *entry = nullptr;
    forEachWindowTag(
        count_,
        [&] {
            slot = (slot == 0 ? depth_ : slot) - 1;
            entry = &ring_[slot];
            return WindowEntry{entry->pc, backwardEpoch_ - entry->epoch};
        },
        [&](unsigned, uint64_t pc, TagMethod method, uint8_t num) {
            // copra-lint: allow(hot-alloc) -- within the reserve() above
            out.push_back({Tag(pc, method, num), entry->taken});
        });
}

void
HistoryWindow::clear()
{
    count_ = 0;
    head_ = 0;
    backwardEpoch_ = 0;
}

namespace {

/** The polynomial base of the key hash (odd, so every power is too). */
constexpr uint64_t kKeyBase = 0x9e3779b97f4a7c15ull;

/** The header's weight in the key hash. */
constexpr uint64_t kHeaderMix = 0xd6e8feb86659fd93ull;

/** Words below the window kept free, so a window moves rarely. */
constexpr size_t kBufferSlack = 4096;

/** The mixed hash of a raw key hash. */
inline uint64_t
mixHash(uint64_t raw) noexcept
{
    raw ^= raw >> 29;
    raw *= 0xbf58476d1ce4e5b9ull;
    return raw ^ (raw >> 32);
}

} // namespace

WindowWalk::WindowWalk(const trace::SoABlocks &soa, unsigned depth,
                       uint32_t back_cap)
    : soa_(soa), depth_(depth), backCap_(back_cap), stride_(depth + 1)
{
    panicIf(depth == 0 || depth > HistoryWindow::kMaxDepth,
            "history window depth must be 1..64");
    panicIf(back_cap == 0 || back_cap > kBackCap,
            "window walk distance cap must be 1..256");
    fatalIf(soa.staticCount() >= (size_t(1) << 23),
            "window walk: a trace with 2^23 or more static branches does "
            "not fit a packed window entry");
    slots_.assign(512, 0); // one page
    buf_.assign(kBufferSlack + depth, 0);
    pos_ = kBufferSlack;
    power_.resize(depth + 1);
    prefix_.resize(depth + 1);
    uint64_t power = 1;
    uint64_t sum = 0;
    for (unsigned j = 0; j <= depth; ++j) {
        power_[j] = power;
        prefix_[j] = sum;
        sum += power;
        power *= kKeyBase;
    }
}

uint64_t
WindowWalk::rawHash(const uint32_t *key) const noexcept
{
    const unsigned fill = key[0] & 0x7f;
    uint64_t sum = key[0] * kHeaderMix;
    for (unsigned j = 0; j < fill; ++j)
        sum += key[1 + j] * power_[j];
    return sum;
}

uint32_t
WindowWalk::findOrAdd(const uint32_t *want, uint64_t raw)
{
    const uint64_t hash = mixHash(raw);
    const size_t words = 1 + (want[0] & 0x7f);
    const uint64_t tag = hash >> 32 << 32;
    size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>(hash) & mask;
    for (; slots_[i] != 0; i = (i + 1) & mask) {
        if ((slots_[i] & ~uint64_t(UINT32_MAX)) != tag)
            continue;
        const uint32_t window = static_cast<uint32_t>(slots_[i]) - 1;
        if (std::equal(want, want + words, storedKey(window)))
            return window;
    }
    fatalIf(windows_ >= (size_t(1) << 31),
            "window walk: 2^31 distinct windows");
    const uint32_t window = static_cast<uint32_t>(windows_++);
    slots_[i] = tag | (window + 1);
    if ((window & (kChunkWindows - 1)) == 0)
        keys_.emplace_back(kChunkWindows * stride_);
    std::copy(want, want + words,
              &keys_.back()[(window & (kChunkWindows - 1)) * stride_]);
    if (2 * windows_ > slots_.size()) {
        // Double at half load; a slot keeps only the hash's top half,
        // so re-derive each window's hash from its stored key.
        PageVector<uint64_t> old(2 * slots_.size());
        old.swap(slots_);
        mask = slots_.size() - 1;
        for (uint64_t slot : old) {
            if (slot == 0)
                continue;
            size_t j = static_cast<size_t>(mixHash(rawHash(
                           storedKey(static_cast<uint32_t>(slot) - 1)))) &
                mask;
            while (slots_[j] != 0)
                j = (j + 1) & mask;
            slots_[j] = slot;
        }
    }
    return window;
}

void
WindowWalk::age(uint64_t delta) noexcept
{
    // Distances never shrink newest to oldest, so the entries still
    // below the cap are the newest young_ ones, and those this step
    // carries to the cap are the oldest of them.
    uint32_t *entry = &buf_[pos_];
    const uint32_t step =
        static_cast<uint32_t>(std::min<uint64_t>(delta, backCap_));
    unsigned young = young_;
    while (young > 0 && entryBack(entry[young - 1]) + step >= backCap_) {
        const uint32_t back = entryBack(entry[young - 1]);
        entry[young - 1] += backCap_ - back;
        entryHash_ += (backCap_ - back) * power_[young - 1];
        --young;
    }
    for (unsigned j = 0; j < young; ++j)
        entry[j] += step;
    entryHash_ += step * prefix_[young];
    young_ = young;
}

uint32_t
WindowWalk::advance()
{
    for (;;) {
        const size_t i = next_++;
        const trace::Site &site = soa_.siteOf(i);
        const trace::BranchRecord rec{site.pc, site.target, site.kind,
                                      soa_.taken()[i] != 0};
        if (!rec.isConditional()) {
            if (advancesBackwardEpoch(rec))
                ++epoch_;
            continue;
        }
        if (agedTo_ != epoch_) {
            age(epoch_ - agedTo_);
            agedTo_ = epoch_;
        }
        // The key: the header word just below the entries.
        const uint32_t id = site.branch;
        uint32_t *key = &buf_[pos_ - 1];
        key[0] = id << 7 | fill_;
        const uint32_t window =
            findOrAdd(key, entryHash_ + key[0] * kHeaderMix);

        // Enter the window at distance 0, over the header; the oldest
        // entry leaves a full window.
        const uint32_t entry = id << 9;
        entryHash_ *= kKeyBase;
        if (fill_ == depth_)
            entryHash_ -= buf_[pos_ + depth_ - 1] * power_[depth_];
        else
            ++fill_;
        entryHash_ += entry;
        buf_[--pos_] = entry;
        young_ = std::min(young_ + 1, fill_);
        if (pos_ == 0) {
            // Move the window to the top of the buffer.
            std::copy(buf_.begin(), buf_.begin() + fill_,
                      buf_.end() - fill_);
            pos_ = buf_.size() - fill_;
        }
        if (advancesBackwardEpoch(rec))
            ++epoch_;
        ++walked_;
        return window << 1 | (rec.taken ? 1u : 0u);
    }
}

} // namespace copra::core
