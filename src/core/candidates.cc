#include "core/candidates.hpp"

#include <algorithm>
#include <cmath>

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
            Contingency *counts = bc.tags.find(ts.tag.packed);
            if (counts == nullptr) {
                if (bc.tags.size() >= perBranchCap_) {
                    bc.capped = true;
                    continue;
                }
                counts = &bc.tags.insert(ts.tag.packed);
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
    bc->tags.forEach([&](uint64_t packed, const Contingency &contingency) {
        Tag tag;
        tag.packed = packed;
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
