#include "core/candidates.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "util/logging.hpp"
#include "util/page_vector.hpp"

namespace copra::core {

namespace {

double
entropyOf(double p)
{
    if (p <= 0.0 || p >= 1.0)
        return 0.0;
    return -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
}

/**
 * Windows 0..@p windows-1 of @p walk grouped by branch, in static-id
 * order, each branch's in first-seen order.
 */
std::vector<uint32_t>
windowsByBranch(const WindowWalk &walk, size_t windows)
{
    std::vector<uint32_t> start(walk.soa().staticCount() + 1);
    for (uint32_t w = 0; w < windows; ++w)
        ++start[walk.branch(w) + 1];
    for (size_t b = 1; b < start.size(); ++b)
        start[b] += start[b - 1];
    std::vector<uint32_t> order(windows);
    for (uint32_t w = 0; w < windows; ++w)
        order[start[walk.branch(w)]++] = w;
    return order;
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
    WindowWalk walk(trace.soa(), depth_);
    mine(walk, max_conditionals);
}

void
CandidateMiner::mine(WindowWalk &walk, uint64_t max_conditionals)
{
    panicIf(mined_, "CandidateMiner::mine called twice");
    mined_ = true;
    panicIf(walk.depth() != depth_, "candidate mining: walk depth differs");
    panicIf(walk.walked() != 0, "candidate mining: the walk has started");
    // No window or branch runs more often than the prefix holds
    // conditionals, so this one compare keeps every 32-bit count below
    // from wrapping.
    const uint64_t all = walk.soa().conditionalCount();
    const uint64_t prefix =
        max_conditionals == 0 ? all : std::min(max_conditionals, all);
    fatalIf(prefix > UINT32_MAX,
            "candidate mining: more than 2^32 conditionals in the mine "
            "prefix; mine a shorter prefix");

    // Per window and outcome a block of 8-bit counts: the executions,
    // then per entry position how many saw it taken; a step's block is
    // step * half (a step is window << 1 | outcome), and window ids
    // count up in order of first appearance, so a new window's blocks
    // go at the end. No count passes its block's executions, so a
    // block about to pass 0xff of them first spills its counts into
    // 32-bit totals. Most windows run a few times, so narrow blocks
    // keep this table near one byte per entry.
    const unsigned depth = depth_;
    const size_t half = depth + 1;
    PageVector<uint8_t> sums;
    sums.reserve(4096); // a page to start
    FlatMap<uint32_t> spilled; // block -> offset of its totals in wide
    std::vector<uint32_t> wide;
    uint64_t outcomes = 0; // bit p: outcome of the (p+1)-th last conditional
    walk.walkTo(max_conditionals, [&](uint32_t step) {
        const size_t block = step * half;
        if (block >= sums.size())
            sums.resize(sums.size() + 2 * half);
        uint8_t *sum = &sums[block];
        if (sum[0] == UINT8_MAX) {
            uint32_t *offset = spilled.find(step);
            if (offset == nullptr) {
                offset = &spilled.insert(step);
                *offset = static_cast<uint32_t>(wide.size());
                wide.resize(wide.size() + half);
            }
            for (size_t i = 0; i < half; ++i) {
                wide[*offset + i] += sum[i];
                sum[i] = 0;
            }
        }
        ++sum[0];
        for (unsigned p = 0; p < depth; ++p)
            sum[1 + p] += static_cast<uint8_t>((outcomes >> p) & 1);
        outcomes = outcomes << 1 | (step & 1);
    });
    const size_t windows = walk.windowCount();

    // Expand branch by branch, so one branch's tag table stays in cache
    // across its windows; a branch's windows keep their first-seen
    // order, the only order its tag admission depends on.
    const trace::SoABlocks &soa = walk.soa();
    const std::span<const uint64_t> pcs = soa.staticPcs();
    std::vector<BranchCandidates> table(soa.staticCount());
    std::vector<uint32_t> total(2 * half); // the window's counts, widened
    for (uint32_t w : windowsByBranch(walk, windows)) {
        for (uint32_t x = 0; x < 2; ++x) {
            const uint32_t block = w << 1 | x;
            const uint32_t *offset = spilled.find(block);
            for (size_t i = 0; i < half; ++i) {
                total[x * half + i] = sums[block * half + i] +
                    (offset != nullptr ? wide[*offset + i] : 0);
            }
        }
        BranchCandidates &bc = table[walk.branch(w)];
        bc.execsNotTaken += total[0];
        bc.execsTaken += total[half];
        walk.forEachTag(w, [&](unsigned position, uint64_t id,
                               TagMethod method, uint8_t num) {
            const uint64_t packed = Tag(pcs[id], method, num).packed;
            Contingency *counts = bc.tags.find(packed);
            if (counts == nullptr) {
                if (bc.tags.size() >= perBranchCap_) {
                    bc.capped = true;
                    return;
                }
                counts = &bc.tags.insert(packed);
            }
            for (unsigned x = 0; x < 2; ++x) {
                const uint32_t execs = total[x * half];
                const uint32_t entry_taken = total[x * half + 1 + position];
                counts->present[1][x] += entry_taken;
                counts->present[0][x] += execs - entry_taken;
            }
        });
    }
    PageVector<uint8_t>().swap(sums);
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
    // Tags are distinct, so the order is total and sorting only the
    // best k gives the same k.
    const size_t keep = std::min<size_t>(k, scored.size());
    std::partial_sort(scored.begin(), scored.begin() + keep, scored.end(),
                      [](const ScoredCandidate &a, const ScoredCandidate &b) {
                          if (a.gain != b.gain)
                              return a.gain > b.gain;
                          return a.tag.packed < b.tag.packed;
                      });
    scored.resize(keep);
    return scored;
}

const BranchCandidates *
CandidateMiner::branch(uint64_t pc) const
{
    return findRow(table_, pc);
}

} // namespace copra::core
