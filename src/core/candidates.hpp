/**
 * @file
 * Correlation candidate mining: the first pass of the selective-history
 * oracle (§3.4). For every static branch X it accumulates, per tagged
 * prior-instance t, the joint statistics of (state of t, outcome of X),
 * and scores candidates by the information the 3-valued state of t
 * carries about X's direction.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/tagging.hpp"
#include "trace/trace.hpp"

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
 * Open-addressed table of contingencies keyed by Tag::packed: linear
 * probing over a power-of-two slot array that starts small and doubles
 * at 3/4 load. Key 0 marks an empty slot, so the one tag whose packed
 * value is 0 lives in a side slot. Iteration order is the slot order,
 * which callers must not rely on.
 */
class TagTable
{
  public:
    /** Distinct tags held. */
    size_t size() const { return size_; }

    /** Counts for @p tag, or nullptr when the tag is absent. */
    const Contingency *find(Tag tag) const;

    /** Counts for @p tag, or nullptr when the tag is absent. */
    Contingency *find(Tag tag);

    /** Insert @p tag (which must be absent) with zero counts. */
    Contingency &insert(Tag tag);

    /** Call @p fn(tag, contingency) for every held tag. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        if (hasZero_)
            fn(Tag{}, zero_);
        for (const Slot &slot : slots_) {
            if (slot.key != 0) {
                Tag tag;
                tag.packed = slot.key;
                fn(tag, slot.counts);
            }
        }
    }

  private:
    struct Slot
    {
        uint64_t key = 0;
        Contingency counts;
    };

    size_t home(uint64_t key) const;
    void grow();

    std::vector<Slot> slots_;
    size_t size_ = 0;
    bool hasZero_ = false;
    Contingency zero_;
};

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
 * Mining pass over a trace. Tracks an n-deep HistoryWindow and, for each
 * dynamic conditional branch, charges every tagged instance in the
 * window against the branch's outcome.
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
     * The top @p k candidates for @p pc by information gain, best first.
     * Fewer than k are returned when the branch has fewer distinct
     * correlated instances.
     */
    std::vector<ScoredCandidate> topCandidates(uint64_t pc,
                                               unsigned k) const;

    /** Mined statistics for @p pc (nullptr if the branch never ran). */
    const BranchCandidates *branch(uint64_t pc) const;

    /** All mined branches. */
    const std::unordered_map<uint64_t, BranchCandidates> &branches() const
    {
        return table_;
    }

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
    std::unordered_map<uint64_t, BranchCandidates> table_;
};

} // namespace copra::core

