/**
 * @file
 * Correlation candidate mining: the first pass of the selective-history
 * oracle (§3.4). For every static branch X it accumulates, per tagged
 * prior-instance t, the joint statistics of (state of t, outcome of X),
 * and scores candidates by the information the 3-valued state of t
 * carries about X's direction.
 * Mining counts into a table indexed by static id and publishes
 * pc-sorted rows (util/pc_rows.hpp).
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/tagging.hpp"
#include "trace/trace.hpp"
#include "util/flat_map.hpp"
#include "util/pc_rows.hpp"

namespace copra::core {

/** Joint counts of one candidate tag against one current branch. */
struct Contingency
{
    // present[tag taken][X taken]; not-in-path counts are derived from
    // the branch's execution totals.
    uint32_t present[2][2] = {{0, 0}, {0, 0}};

    uint32_t presentTotal() const
    {
        return present[0][0] + present[0][1] + present[1][0] +
            present[1][1];
    }
};

/** A scored correlation candidate for one static branch. */
struct ScoredCandidate
{
    Tag tag;
    double gain = 0.0; //!< information gain about the branch outcome
};

/**
 * A branch's contingencies keyed by Tag::packed. Iteration order is
 * the slot order, which callers must not rely on.
 */
using TagTable = FlatMap<Contingency>;

/**
 * Per-static-branch candidate statistics accumulated during mining.
 * The per-branch tag map is capped to bound memory on very branchy
 * workloads; once the cap is hit, new tags are ignored (existing tags
 * keep accumulating) and `capped` is set.
 */
struct BranchCandidates
{
    uint64_t execsTaken = 0;
    uint64_t execsNotTaken = 0;
    bool capped = false;
    TagTable tags;

    uint64_t execs() const { return execsTaken + execsNotTaken; }
};

/**
 * Mining pass over a trace. For each dynamic conditional branch it
 * charges every tagged instance in its n-deep window against the
 * branch's outcome, one window at a time: a WindowWalk gives every
 * conditional a window id, the pass sums per window the executions by
 * outcome and, per window entry, how many of them saw the entry taken,
 * and only then expands each distinct window into its tags (in order
 * of first appearance, through forEachWindowTag) and adds the sums to
 * the branch's table. A window that recurs a thousand times costs one
 * expansion and one probe per tag; the per-conditional cost is the
 * walk plus n + 1 counter adds into 8-bit counts that spill to 32-bit
 * totals every 255 executions of a window. The tags, their counts,
 * `capped` and which tags a capped branch keeps are those the
 * per-conditional collect-and-probe miner (check::referenceMine)
 * produces: a branch's windows expand in first-seen order, the order
 * that miner first meets their tags in. On the suite traces at 250k
 * branches, depth 16, mining costs 80-124 ns per mined conditional
 * with the walk, against 291-436 for collect-and-probe.
 */
class CandidateMiner
{
  public:
    /**
     * @param depth History window depth n.
     * @param per_branch_cap Maximum distinct tags tracked per branch.
     */
    explicit CandidateMiner(unsigned depth, size_t per_branch_cap = 4096);

    /**
     * Mine the first @p max_conditionals conditional branches of
     * @p trace (0 = the whole trace). May be called once per miner.
     */
    void mine(const trace::Trace &trace, uint64_t max_conditionals = 0);

    /**
     * The same over @p walk, a walk at this miner's depth that has not
     * started: walks it to the prefix's end. The check module mines
     * through a walk it plants a defect in.
     */
    void mine(WindowWalk &walk, uint64_t max_conditionals = 0);

    /**
     * The top @p k candidates for @p pc by information gain, best first.
     * Fewer than k are returned when the branch has fewer distinct
     * correlated instances.
     */
    std::vector<ScoredCandidate> topCandidates(uint64_t pc,
                                               unsigned k) const;

    /** Mined statistics for @p pc (nullptr if the branch never ran). */
    const BranchCandidates *branch(uint64_t pc) const;

    /**
     * Information gain of a candidate's 3-valued state about the branch
     * outcome (in bits). Exposed for tests.
     */
    static double informationGain(const BranchCandidates &branch,
                                  const Contingency &tag);

  private:
    unsigned depth_;
    size_t perBranchCap_;
    bool mined_ = false;
    PcRows<BranchCandidates> table_;
};

} // namespace copra::core

