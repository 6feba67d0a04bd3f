#include "trace/trace_soa.hpp"

#include "util/logging.hpp"
#include "util/rng.hpp"

namespace copra::trace {

SoABlocks::SoABlocks(std::vector<uint64_t> pc, std::vector<uint64_t> target,
                     std::vector<uint8_t> kind, std::vector<uint8_t> taken)
    : pc_(std::move(pc)), target_(std::move(target)),
      kind_(std::move(kind)), taken_(std::move(taken))
{
    panicIf(pc_.size() != target_.size() || pc_.size() != kind_.size() ||
            pc_.size() != taken_.size(),
            "SoABlocks columns must have equal length");
    for (uint8_t k : kind_)
        panicIf(k > static_cast<uint8_t>(BranchKind::Return),
                "SoABlocks: invalid branch kind in column");
    for (uint8_t &t : taken_)
        t = t != 0 ? 1 : 0;
    staticIndex_.reserve(pc_.size());
    for (size_t i = 0; i < pc_.size(); ++i)
        indexRecord(i);
}

void
SoABlocks::append(const BranchRecord &rec)
{
    pc_.push_back(rec.pc);
    target_.push_back(rec.target);
    kind_.push_back(static_cast<uint8_t>(rec.kind));
    taken_.push_back(rec.taken ? 1 : 0);
    indexRecord(pc_.size() - 1);
}

void
SoABlocks::append(const SoABlocks &other)
{
    size_t base = size();
    pc_.insert(pc_.end(), other.pc_.begin(), other.pc_.end());
    target_.insert(target_.end(), other.target_.begin(),
                   other.target_.end());
    kind_.insert(kind_.end(), other.kind_.begin(), other.kind_.end());
    taken_.insert(taken_.end(), other.taken_.begin(), other.taken_.end());

    // other's ids are in first-appearance order within other, so
    // interning them in that order reproduces the ids a per-record
    // append would have assigned.
    std::vector<uint32_t> remap(other.staticCount());
    for (size_t id = 0; id < remap.size(); ++id)
        remap[id] = intern(other.staticPcs_[id]);
    staticIndex_.reserve(size());
    for (uint32_t id : other.staticIndex_)
        staticIndex_.push_back(remap[id]);

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
}

void
SoABlocks::reserve(size_t n)
{
    pc_.reserve(n);
    target_.reserve(n);
    kind_.reserve(n);
    taken_.reserve(n);
    staticIndex_.reserve(n);
}

void
SoABlocks::clear()
{
    *this = SoABlocks();
}

void
SoABlocks::indexRecord(size_t i)
{
    staticIndex_.push_back(intern(pc_[i]));
    if (kind_[i] != static_cast<uint8_t>(BranchKind::Conditional))
        return;
    ++conditionals_;
    if (!condSegments_.empty() &&
        condSegments_.back().begin + condSegments_.back().count == i)
        ++condSegments_.back().count;
    else
        condSegments_.push_back({i, 1});
}

uint32_t
SoABlocks::intern(uint64_t pc)
{
    // Open addressing with linear probing, grown at 50% load; each
    // static branch is hashed once per append, and ledger passes then
    // accumulate with a plain indexed add.
    if (staticPcs_.size() * 2 >= slots_.size()) {
        size_t cap = slots_.empty() ? 256 : slots_.size() * 2;
        slots_.assign(cap, 0);
        for (uint32_t id = 0; id < staticPcs_.size(); ++id) {
            size_t j = mix64(staticPcs_[id]) & (cap - 1);
            while (slots_[j] != 0)
                j = (j + 1) & (cap - 1);
            slots_[j] = id + 1;
        }
    }
    size_t mask = slots_.size() - 1;
    size_t j = mix64(pc) & mask;
    while (slots_[j] != 0 && staticPcs_[slots_[j] - 1] != pc)
        j = (j + 1) & mask;
    if (slots_[j] == 0) {
        staticPcs_.push_back(pc);
        slots_[j] = static_cast<uint32_t>(staticPcs_.size());
    }
    return slots_[j] - 1;
}

} // namespace copra::trace
