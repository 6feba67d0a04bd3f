#include "trace/trace_soa.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/logging.hpp"
#include "util/rng.hpp"

namespace copra::trace {

namespace {

[[noreturn]] void
reject(const std::string &why)
{
    throw std::runtime_error("copra trace: " + why);
}

} // namespace

SoABlocks::SoABlocks(std::vector<uint64_t> pc, std::vector<uint64_t> target,
                     std::vector<uint8_t> kind, std::vector<uint8_t> taken)
{
    panicIf(pc.size() != target.size() || pc.size() != kind.size() ||
            pc.size() != taken.size(),
            "SoABlocks columns must have equal length");
    for (uint8_t k : kind)
        panicIf(k > static_cast<uint8_t>(BranchKind::Return),
                "SoABlocks: invalid branch kind in column");
    for (uint8_t &t : taken)
        t = t != 0 ? 1 : 0;
    owned_.pc = std::move(pc);
    owned_.target = std::move(target);
    owned_.kind = std::move(kind);
    owned_.taken = std::move(taken);
    owned_.staticIndex.reserve(owned_.pc.size());
    for (size_t i = 0; i < owned_.pc.size(); ++i)
        indexRecord(i);
    bind();
}

SoABlocks
SoABlocks::adopt(std::shared_ptr<const void> image, const Columns &c)
{
    size_t n = c.pc.size();
    if (c.target.size() != n || c.kind.size() != n || c.taken.size() != n ||
        c.staticIndex.size() != n)
        reject("column lengths differ");
    size_t statics = c.staticPcs.size();
    if (statics > n)
        reject("more static pcs (" + std::to_string(statics) +
               ") than records (" + std::to_string(n) + ")");
    {
        // Distinct static pcs make the id of a pc unique, so the
        // per-record checks below pin every id to what interning the
        // pc column would assign — without hashing a record.
        std::vector<uint64_t> sorted(c.staticPcs.begin(), c.staticPcs.end());
        std::sort(sorted.begin(), sorted.end());
        if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
            reject("duplicate static pc");
    }

    std::vector<Segment> segments;
    uint64_t conditionals = 0;
    uint64_t next = 0; // the id the next first-seen static branch carries
    for (size_t i = 0; i < n; ++i) {
        uint32_t id = c.staticIndex[i];
        if (id >= next) [[unlikely]] {
            if (id >= statics)
                reject("static id " + std::to_string(id) + " at record " +
                       std::to_string(i) + " is out of range");
            if (id != next)
                reject("static id " + std::to_string(id) + " at record " +
                       std::to_string(i) +
                       " is out of first-appearance order");
            ++next;
        }
        if (c.staticPcs[id] != c.pc[i]) [[unlikely]]
            reject("static id at record " + std::to_string(i) +
                   " names another pc");
        uint8_t kind = c.kind[i];
        if (kind > static_cast<uint8_t>(BranchKind::Return) ||
            c.taken[i] > 1) [[unlikely]]
            reject("invalid kind or taken byte at record " +
                   std::to_string(i));
        if (kind != static_cast<uint8_t>(BranchKind::Conditional))
            continue;
        ++conditionals;
        if (!segments.empty() &&
            segments.back().begin + segments.back().count == i)
            ++segments.back().count;
        else
            segments.push_back({i, 1});
    }
    if (next != statics)
        reject("static pcs " + std::to_string(next) + ".." +
               std::to_string(statics) + " are never referenced");

    SoABlocks out;
    out.image_ = std::move(image);
    out.view_ = c;
    out.condSegments_ = std::move(segments);
    out.conditionals_ = conditionals;
    return out;
}

SoABlocks::SoABlocks(const SoABlocks &other)
    : image_(other.image_), owned_(other.owned_), view_(other.view_),
      condSegments_(other.condSegments_), slots_(other.slots_),
      conditionals_(other.conditionals_)
{
    if (!image_)
        bind();
}

SoABlocks::SoABlocks(SoABlocks &&other) noexcept
    : image_(std::move(other.image_)), owned_(std::move(other.owned_)),
      view_(std::exchange(other.view_, {})),
      condSegments_(std::move(other.condSegments_)),
      slots_(std::move(other.slots_)),
      conditionals_(std::exchange(other.conditionals_, 0))
{
}

SoABlocks &
SoABlocks::operator=(SoABlocks other) noexcept
{
    // A moved vector keeps its buffer, so the moved views stay valid.
    image_ = std::move(other.image_);
    owned_ = std::move(other.owned_);
    view_ = other.view_;
    condSegments_ = std::move(other.condSegments_);
    slots_ = std::move(other.slots_);
    conditionals_ = other.conditionals_;
    return *this;
}

void
SoABlocks::append(const BranchRecord &rec)
{
    own();
    owned_.pc.push_back(rec.pc);
    owned_.target.push_back(rec.target);
    owned_.kind.push_back(static_cast<uint8_t>(rec.kind));
    owned_.taken.push_back(rec.taken ? 1 : 0);
    indexRecord(owned_.pc.size() - 1);
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
    auto extend = [](auto &column, auto view) {
        column.insert(column.end(), view.begin(), view.end());
    };
    extend(owned_.pc, other.view_.pc);
    extend(owned_.target, other.view_.target);
    extend(owned_.kind, other.view_.kind);
    extend(owned_.taken, other.view_.taken);

    // other's ids are in first-appearance order within other, so
    // interning them in that order reproduces the ids a per-record
    // append would have assigned.
    std::vector<uint32_t> remap(other.staticCount());
    for (size_t id = 0; id < remap.size(); ++id)
        remap[id] = intern(other.view_.staticPcs[id]);
    owned_.staticIndex.reserve(owned_.pc.size());
    for (uint32_t id : other.view_.staticIndex)
        owned_.staticIndex.push_back(remap[id]);

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
    owned_.pc.reserve(n);
    owned_.target.reserve(n);
    owned_.kind.reserve(n);
    owned_.taken.reserve(n);
    owned_.staticIndex.reserve(n);
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
    auto copy = [](auto &column, auto view) {
        column.assign(view.begin(), view.end());
    };
    copy(owned_.pc, view_.pc);
    copy(owned_.target, view_.target);
    copy(owned_.kind, view_.kind);
    copy(owned_.taken, view_.taken);
    copy(owned_.staticIndex, view_.staticIndex);
    copy(owned_.staticPcs, view_.staticPcs);
    image_.reset();
    bind();
}

void
SoABlocks::bind()
{
    view_ = {owned_.pc,    owned_.target,      owned_.kind,
             owned_.taken, owned_.staticIndex, owned_.staticPcs};
}

void
SoABlocks::indexRecord(size_t i)
{
    owned_.staticIndex.push_back(intern(owned_.pc[i]));
    if (owned_.kind[i] != static_cast<uint8_t>(BranchKind::Conditional))
        return;
    ++conditionals_;
    if (!condSegments_.empty() &&
        condSegments_.back().begin + condSegments_.back().count == i)
        ++condSegments_.back().count;
    else
        condSegments_.push_back({i, 1});
}

void
SoABlocks::rehash(size_t cap)
{
    slots_.assign(cap, 0);
    const std::vector<uint64_t> &pcs = owned_.staticPcs;
    for (uint32_t id = 0; id < pcs.size(); ++id) {
        size_t j = mix64(pcs[id]) & (cap - 1);
        while (slots_[j] != 0)
            j = (j + 1) & (cap - 1);
        slots_[j] = id + 1;
    }
}

uint32_t
SoABlocks::intern(uint64_t pc)
{
    // Open addressing with linear probing, grown at 50% load; each
    // static branch is hashed once per append, and ledger passes then
    // accumulate with a plain indexed add. The table starts empty for
    // columns copied out of an adopted image, so the first growth
    // sizes it for every static pc already held.
    std::vector<uint64_t> &pcs = owned_.staticPcs;
    if (pcs.size() * 2 >= slots_.size()) {
        size_t cap = slots_.empty() ? 256 : slots_.size() * 2;
        while (pcs.size() * 2 >= cap)
            cap *= 2;
        rehash(cap);
    }
    size_t mask = slots_.size() - 1;
    size_t j = mix64(pc) & mask;
    while (slots_[j] != 0 && pcs[slots_[j] - 1] != pc)
        j = (j + 1) & mask;
    if (slots_[j] == 0) {
        pcs.push_back(pc);
        slots_[j] = static_cast<uint32_t>(pcs.size());
    }
    return slots_[j] - 1;
}

} // namespace copra::trace
