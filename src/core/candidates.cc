#include "core/candidates.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/logging.hpp"

namespace copra::core {

namespace {

double
entropyOf(double p)
{
    if (p <= 0.0 || p >= 1.0)
        return 0.0;
    return -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
}

} // namespace

size_t
TagTable::home(uint64_t key) const
{
    // Fibonacci hashing: the product's top bits index the slot array.
    unsigned bits = static_cast<unsigned>(__builtin_ctzll(slots_.size()));
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ull) >> (64 - bits));
}

const Contingency *
TagTable::find(Tag tag) const
{
    if (tag.packed == 0)
        return hasZero_ ? &zero_ : nullptr;
    if (slots_.empty())
        return nullptr;
    size_t mask = slots_.size() - 1;
    for (size_t i = home(tag.packed);; i = (i + 1) & mask) {
        const Slot &slot = slots_[i];
        if (slot.key == tag.packed)
            return &slot.counts;
        if (slot.key == 0)
            return nullptr;
    }
}

Contingency *
TagTable::find(Tag tag)
{
    return const_cast<Contingency *>(std::as_const(*this).find(tag));
}

Contingency &
TagTable::insert(Tag tag)
{
    ++size_;
    if (tag.packed == 0) {
        hasZero_ = true;
        return zero_;
    }
    if (4 * size_ > 3 * slots_.size())
        grow();
    size_t mask = slots_.size() - 1;
    size_t i = home(tag.packed);
    while (slots_[i].key != 0)
        i = (i + 1) & mask;
    slots_[i].key = tag.packed;
    return slots_[i].counts;
}

void
TagTable::grow()
{
    // Start at 16 slots: most branches hold a few dozen tags, and a
    // branch's table only grows as far as its own tag count needs.
    std::vector<Slot> old(std::max<size_t>(16, 2 * slots_.size()));
    old.swap(slots_);
    size_t mask = slots_.size() - 1;
    for (const Slot &slot : old) {
        if (slot.key == 0)
            continue;
        size_t i = home(slot.key);
        while (slots_[i].key != 0)
            i = (i + 1) & mask;
        slots_[i] = slot;
    }
}

CandidateMiner::CandidateMiner(unsigned depth, size_t per_branch_cap)
    : depth_(depth), perBranchCap_(per_branch_cap)
{
    panicIf(per_branch_cap == 0, "candidate cap must be positive");
}

void
CandidateMiner::mine(const trace::Trace &trace, uint64_t max_conditionals)
{
    panicIf(mined_, "CandidateMiner::mine called twice");
    mined_ = true;

    HistoryWindow window(depth_);
    std::vector<TagState> collected;
    uint64_t seen = 0;
    const trace::SoABlocks &soa = trace.soa();
    std::vector<BranchCandidates> table(soa.staticCount());

    for (size_t i = 0; i < soa.size(); ++i) {
        const trace::BranchRecord rec = soa.record(i);
        if (!rec.isConditional()) {
            window.push(rec);
            continue;
        }
        if (max_conditionals != 0 && seen >= max_conditionals)
            break;
        ++seen;

        window.collect(collected);
        BranchCandidates &bc = table[soa.staticIndex()[i]];
        if (rec.taken)
            ++bc.execsTaken;
        else
            ++bc.execsNotTaken;
        // A tag's counts never exceed its branch's executions, so this
        // one compare keeps every 32-bit Contingency count from wrapping.
        fatalIf(bc.execs() > UINT32_MAX,
                "candidate mining: a branch ran more than 2^32 times; "
                "mine a shorter prefix");
        for (const TagState &ts : collected) {
            Contingency *counts = bc.tags.find(ts.tag);
            if (counts == nullptr) {
                if (bc.tags.size() >= perBranchCap_) {
                    bc.capped = true;
                    continue;
                }
                counts = &bc.tags.insert(ts.tag);
            }
            ++counts->present[ts.taken ? 1 : 0][rec.taken ? 1 : 0];
        }
        window.push(rec);
    }
    table_ = rowsFromIds(
        soa.staticPcs(), table,
        [](const BranchCandidates &bc) { return bc.execs() != 0; });
}

double
CandidateMiner::informationGain(const BranchCandidates &branch,
                                const Contingency &tag)
{
    double total = static_cast<double>(branch.execs());
    if (total == 0.0)
        return 0.0;

    double base = entropyOf(static_cast<double>(branch.execsTaken) / total);

    // Three states: not-taken present, taken present, not-in-path.
    double cond = 0.0;
    uint64_t nip_taken = branch.execsTaken;
    uint64_t nip_not = branch.execsNotTaken;
    for (int dir = 0; dir < 2; ++dir) {
        uint64_t with_taken = tag.present[dir][1];
        uint64_t with_not = tag.present[dir][0];
        nip_taken -= with_taken;
        nip_not -= with_not;
        uint64_t n = with_taken + with_not;
        if (n > 0) {
            cond += (n / total) *
                entropyOf(static_cast<double>(with_taken) / n);
        }
    }
    uint64_t n_nip = nip_taken + nip_not;
    if (n_nip > 0) {
        cond += (n_nip / total) *
            entropyOf(static_cast<double>(nip_taken) / n_nip);
    }
    return base - cond;
}

std::vector<ScoredCandidate>
CandidateMiner::topCandidates(uint64_t pc, unsigned k) const
{
    std::vector<ScoredCandidate> scored;
    const BranchCandidates *bc = branch(pc);
    if (bc == nullptr)
        return scored;

    scored.reserve(bc->tags.size());
    bc->tags.forEach([&](Tag tag, const Contingency &contingency) {
        scored.push_back({tag, informationGain(*bc, contingency)});
    });

    // Deterministic order: gain descending, then packed tag ascending so
    // equal-gain candidates do not depend on the table's slot order.
    std::sort(scored.begin(), scored.end(),
              [](const ScoredCandidate &a, const ScoredCandidate &b) {
                  if (a.gain != b.gain)
                      return a.gain > b.gain;
                  return a.tag.packed < b.tag.packed;
              });
    if (scored.size() > k)
        scored.resize(k);
    return scored;
}

const BranchCandidates *
CandidateMiner::branch(uint64_t pc) const
{
    return findRow(table_, pc);
}

} // namespace copra::core
