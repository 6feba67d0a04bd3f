#include "trace/trace_soa.hpp"

#include <bit>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/rng.hpp"

namespace copra::trace {

namespace {

[[noreturn]] void
reject(const std::string &why)
{
    throw std::runtime_error("copra trace: " + why);
}

uint64_t
siteHash(uint64_t pc, uint64_t target, BranchKind kind)
{
    return mix64(pc ^ std::rotl(target, 32) ^ static_cast<uint64_t>(kind));
}

/**
 * Make the open-addressing table @p slots (slot = id + 1, 0 = empty)
 * room for one more id past @p count at under 50% load, rehashing the
 * held ids through @p hash_of when it grows.
 */
template <typename HashOf>
void
reserveSlot(std::vector<uint32_t> &slots, size_t count, HashOf hash_of)
{
    if (count * 2 < slots.size())
        return;
    size_t cap = slots.empty() ? 256 : slots.size() * 2;
    while (count * 2 >= cap)
        cap *= 2;
    slots.assign(cap, 0);
    for (uint32_t id = 0; id < count; ++id) {
        size_t j = hash_of(id) & (cap - 1);
        while (slots[j] != 0)
            j = (j + 1) & (cap - 1);
        slots[j] = id + 1;
    }
}

} // namespace

SoABlocks
SoABlocks::adopt(std::shared_ptr<const void> image, const Columns &c)
{
    size_t n = c.site.size();
    size_t sites = c.sitePc.size();
    if (c.taken.size() != n || c.siteTarget.size() != sites ||
        c.siteKind.size() != sites)
        reject("column lengths differ");
    if (sites > n)
        reject("more sites (" + std::to_string(sites) + ") than records (" +
               std::to_string(n) + ")");

    // Interning the site rows in order rebuilds the table an append
    // would have built, and derives each site's static id; a row that
    // interns to an earlier id repeats that site's triple.
    SoABlocks out;
    out.sites_.reserve(sites);
    // The record pass reads one byte per site, not a 24-byte row.
    std::vector<uint8_t> conditional(sites);
    for (size_t j = 0; j < sites; ++j) {
        uint8_t kind = c.siteKind[j];
        if (kind > static_cast<uint8_t>(BranchKind::Return))
            reject("invalid kind " + std::to_string(kind) + " at site " +
                   std::to_string(j));
        uint32_t id = out.internSite(c.sitePc[j], c.siteTarget[j],
                                     static_cast<BranchKind>(kind));
        if (id != j)
            reject("site " + std::to_string(j) +
                   " repeats the pc, target and kind of site " +
                   std::to_string(id));
        conditional[j] = kind == static_cast<uint8_t>(BranchKind::Conditional);
    }

    uint64_t next = 0; // the id the next first-seen site carries
    for (size_t i = 0; i < n; ++i) {
        uint32_t s = c.site[i];
        if (s >= next) [[unlikely]] {
            if (s >= sites)
                reject("site id " + std::to_string(s) + " at record " +
                       std::to_string(i) + " is out of range");
            if (s != next)
                reject("site id " + std::to_string(s) + " at record " +
                       std::to_string(i) +
                       " is out of first-appearance order");
            ++next;
        }
        if (c.taken[i] > 1) [[unlikely]]
            reject("invalid taken byte at record " + std::to_string(i));
        if (!conditional[s])
            continue;
        ++out.conditionals_;
        std::vector<Segment> &runs = out.condSegments_;
        if (!runs.empty() && runs.back().begin + runs.back().count == i)
            ++runs.back().count;
        else
            runs.push_back({i, 1});
    }
    if (next != sites)
        reject("site " + std::to_string(next) + " is never referenced");

    out.image_ = std::move(image);
    out.site_ = c.site;
    out.taken_ = c.taken;
    return out;
}

SoABlocks::SoABlocks(const SoABlocks &other)
    : image_(other.image_), ownedSite_(other.ownedSite_),
      ownedTaken_(other.ownedTaken_), site_(other.site_),
      taken_(other.taken_), sites_(other.sites_),
      staticPcs_(other.staticPcs_), condSegments_(other.condSegments_),
      siteSlots_(other.siteSlots_), pcSlots_(other.pcSlots_),
      conditionals_(other.conditionals_)
{
    if (!image_)
        bind();
}

SoABlocks::SoABlocks(SoABlocks &&other) noexcept
    : image_(std::move(other.image_)),
      ownedSite_(std::move(other.ownedSite_)),
      ownedTaken_(std::move(other.ownedTaken_)),
      site_(std::exchange(other.site_, {})),
      taken_(std::exchange(other.taken_, {})),
      sites_(std::move(other.sites_)),
      staticPcs_(std::move(other.staticPcs_)),
      condSegments_(std::move(other.condSegments_)),
      siteSlots_(std::move(other.siteSlots_)),
      pcSlots_(std::move(other.pcSlots_)),
      conditionals_(std::exchange(other.conditionals_, 0))
{
}

SoABlocks &
SoABlocks::operator=(SoABlocks other) noexcept
{
    // A moved vector keeps its buffer, so the moved views stay valid.
    image_ = std::move(other.image_);
    ownedSite_ = std::move(other.ownedSite_);
    ownedTaken_ = std::move(other.ownedTaken_);
    site_ = other.site_;
    taken_ = other.taken_;
    sites_ = std::move(other.sites_);
    staticPcs_ = std::move(other.staticPcs_);
    condSegments_ = std::move(other.condSegments_);
    siteSlots_ = std::move(other.siteSlots_);
    pcSlots_ = std::move(other.pcSlots_);
    conditionals_ = other.conditionals_;
    return *this;
}

void
SoABlocks::append(const BranchRecord &rec)
{
    own();
    uint32_t s = internSite(rec.pc, rec.target, rec.kind);
    ownedSite_.push_back(s);
    ownedTaken_.push_back(rec.taken ? 1 : 0);
    indexRecord(ownedSite_.size() - 1, sites_[s]);
    bind();
}

void
SoABlocks::append(const SoABlocks &other)
{
    if (&other == this) {
        SoABlocks copy(other);
        append(copy);
        return;
    }
    own();
    size_t base = size();

    // other's site ids are in first-appearance order within other, so
    // interning its rows in that order reproduces the ids a per-record
    // append would have assigned.
    std::vector<uint32_t> remap(other.siteCount());
    for (size_t j = 0; j < remap.size(); ++j) {
        const Site &s = other.sites_[j];
        remap[j] = internSite(s.pc, s.target, s.kind);
    }
    ownedSite_.reserve(base + other.size());
    for (uint32_t s : other.site_)
        ownedSite_.push_back(remap[s]);
    ownedTaken_.insert(ownedTaken_.end(), other.taken_.begin(),
                       other.taken_.end());

    for (Segment seg : other.condSegments_) {
        seg.begin += base;
        if (!condSegments_.empty() &&
            condSegments_.back().begin + condSegments_.back().count ==
                seg.begin)
            condSegments_.back().count += seg.count;
        else
            condSegments_.push_back(seg);
    }
    conditionals_ += other.conditionals_;
    bind();
}

void
SoABlocks::reserve(size_t n)
{
    own();
    ownedSite_.reserve(n);
    ownedTaken_.reserve(n);
    bind();
}

void
SoABlocks::clear()
{
    *this = SoABlocks();
}

void
SoABlocks::own()
{
    if (!image_)
        return;
    ownedSite_.assign(site_.begin(), site_.end());
    ownedTaken_.assign(taken_.begin(), taken_.end());
    image_.reset();
    bind();
}

void
SoABlocks::bind()
{
    site_ = ownedSite_;
    taken_ = ownedTaken_;
}

void
SoABlocks::indexRecord(size_t i, const Site &s)
{
    if (s.kind != BranchKind::Conditional)
        return;
    ++conditionals_;
    if (!condSegments_.empty() &&
        condSegments_.back().begin + condSegments_.back().count == i)
        ++condSegments_.back().count;
    else
        condSegments_.push_back({i, 1});
}

uint32_t
SoABlocks::internSite(uint64_t pc, uint64_t target, BranchKind kind)
{
    // Open addressing with linear probing, grown at 50% load: one probe
    // per appended record, and a pc probe only for a new site.
    reserveSlot(siteSlots_, sites_.size(), [&](uint32_t id) {
        const Site &s = sites_[id];
        return siteHash(s.pc, s.target, s.kind);
    });
    size_t mask = siteSlots_.size() - 1;
    size_t j = siteHash(pc, target, kind) & mask;
    for (; siteSlots_[j] != 0; j = (j + 1) & mask) {
        const Site &s = sites_[siteSlots_[j] - 1];
        if (s.pc == pc && s.target == target && s.kind == kind)
            return siteSlots_[j] - 1;
    }
    sites_.push_back({pc, target, kind, internPc(pc)});
    siteSlots_[j] = static_cast<uint32_t>(sites_.size());
    return siteSlots_[j] - 1;
}

uint32_t
SoABlocks::internPc(uint64_t pc)
{
    reserveSlot(pcSlots_, staticPcs_.size(),
                [&](uint32_t id) { return mix64(staticPcs_[id]); });
    size_t mask = pcSlots_.size() - 1;
    size_t j = mix64(pc) & mask;
    while (pcSlots_[j] != 0 && staticPcs_[pcSlots_[j] - 1] != pc)
        j = (j + 1) & mask;
    if (pcSlots_[j] == 0) {
        staticPcs_.push_back(pc);
        pcSlots_[j] = static_cast<uint32_t>(staticPcs_.size());
    }
    return pcSlots_[j] - 1;
}

} // namespace copra::trace
