/**
 * @file
 * The selective-history oracle (paper §3.4, §3.6).
 *
 * The paper "used an oracle mechanism to choose the set of 1, 2 or 3 most
 * important branches to include in the history for each branch". This
 * implementation realizes that oracle in three phases:
 *
 *  1. Mine: accumulate per-(branch, tag) contingency statistics over a
 *     trace prefix and keep the top-K candidates per branch by
 *     information gain (core/candidates.hpp).
 *  2. Record: replay the full trace once, storing per execution of each
 *     branch the 3-valued state of each of its K candidates (packed 2
 *     bits per candidate) plus the outcome.
 *  3. Select: greedy forward selection — for sizes 1..3, extend the
 *     current set with the candidate that maximizes the *exact* accuracy
 *     of the selective predictor, as replaying the recorded states
 *     through a fresh 3^m-entry 2-bit-counter table would score it.
 *
 * Cost per dynamic conditional branch, at window depth n and pool K.
 * Mine and record each run a WindowWalk (core/tagging.hpp): it gives
 * every conditional a window id, the exact identity of (its static id,
 * its window's newest-first (static id, capped backward distance)
 * entries), for one hash probe and one (n + 1)-word key compare. Mine
 * walks the prefix and record the whole trace, each with a walk of its
 * own, so one phase's walk and per-window tables are gone before the
 * other's grow.
 *
 *  - Mine adds n + 1 narrow counts per conditional into its window's
 *    block (executions by outcome, taken count per entry position),
 *    then expands each distinct window once into its tags
 *    (forEachWindowTag, the rule HistoryWindow::collect uses) and
 *    charges them in the branch's flat contingency table (TagTable):
 *    2n probes per distinct window, not per conditional.
 *  - Record matches each distinct window's tags against its branch's
 *    K candidates once, giving the window entry each in-path candidate
 *    reads; a row is then the window's base bits plus one outcome bit
 *    per in-path candidate, read from the last n outcomes.
 *  - Select interns each branch's rows once and cuts them into runs of
 *    identical consecutive rows, (distinct row, min(length, 3))
 *    pairs: three same-outcome steps saturate a 2-bit counter, so a
 *    longer run changes nothing more. Per distinct row it keeps three
 *    lane masks, the candidates whose state is NotInPath, NotTaken or
 *    Taken. Each size makes one pass over the runs and scores all K
 *    extensions of the current set at once. The counters are bit
 *    sliced: per (chosen-set prefix, state) cell, a 16-bit plane of
 *    high bits and one of low bits, a lane per candidate. A run gathers
 *    its lanes from its prefix's three cells under the masks, applies
 *    the closed-form 2-bit step up to three times, counts misses in
 *    byte lanes and scatters the counters back: a few dozen word
 *    operations per run instead of K dependent counter updates per
 *    row. replayScore() stays the reference scorer and scores the
 *    exhaustive mode.
 *
 * Windows recur, so the per-window work is small. At depth 16 the
 * share of conditionals that see a new window is 0.0-9.0% per suite
 * trace at fig4's 2M branches (1.6% overall) and 0.0-19.2% at 250k
 * (3.4%); depth 32 roughly triples it (go: 32% at 2M). Single-
 * threaded on the 11 suite traces at 250k branches (mine 125k, seed 1,
 * shared 4-core x86-64 VM), mine costs 80-124 ns per mined conditional
 * (walk included; the collect-and-probe miner took 291-436) and record
 * 76-116 ns per branch (pools, walk and rows; the chain-walk record
 * took 87-124). Record walks the mine prefix again, about 0.07 s of
 * record's 0.21-0.32 s there: a walk shared by both phases had to keep
 * a step per mined conditional and keep its windows alive through
 * both, and the allocator's per-thread arenas kept that memory after
 * each job.
 *
 * All three phases index their tables by static id; the result is
 * pc-sorted rows (util/pc_rows.hpp).
 *
 * Greedy-over-top-K is an approximation of the (unspecified) paper
 * oracle; an exhaustive subset search is available for ablation.
 */

#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/candidates.hpp"
#include "core/selective.hpp"
#include "sim/ledger.hpp"
#include "trace/trace.hpp"
#include "util/pc_rows.hpp"

namespace copra::core {

/** Configuration of a selective-history oracle run. */
struct OracleConfig
{
    /** History window depth n (the paper sweeps 8..32; default 16). */
    unsigned historyDepth = 16;

    /** Candidate pool size K retained per branch after mining. */
    unsigned candidatePool = 14;

    /** Largest selective history size (the paper uses 3). */
    unsigned maxSelect = 3;

    /**
     * Conditional branches of the trace used for mining
     * (0 = all). Recording and scoring always use the whole trace.
     */
    uint64_t mineConditionals = 0;

    /** Cap on distinct tags tracked per branch while mining. */
    size_t perBranchTagCap = 4096;

    /**
     * Exhaustive subset search instead of greedy (costly: C(K,2)+C(K,3)
     * replays per branch — for ablation on small traces only).
     */
    bool exhaustive = false;

    /** Which instance-tagging methods contribute candidates (§3.2). */
    enum class TagFilter : uint8_t
    {
        Both,           //!< union of both methods (the paper's choice)
        OccurrenceOnly, //!< method A only
        BackwardOnly,   //!< method B only
    };
    TagFilter tagFilter = TagFilter::Both;
};

/** Oracle outcome for one static branch. */
struct BranchSelection
{
    uint64_t pc = 0;
    uint64_t execs = 0;
    uint64_t taken = 0;

    /** Correct predictions using the best set of size s+1 (s = 0..2). */
    std::array<uint64_t, 3> correct{};

    /** The chosen tags per size (chosen[s] has s+1 entries). */
    std::array<std::vector<Tag>, 3> chosen{};
};

/** Greedy forward selection over a recorded state matrix. */
struct GreedySelection
{
    /** Candidates in pick order; size s uses the first min(s, picked). */
    std::array<unsigned, 3> order{};
    unsigned picked = 0;

    /** Correct predictions using the best set of size s+1 (s = 0..2). */
    std::array<uint64_t, 3> correct{};
};

/** One static branch's candidate pool and recorded state rows. */
struct RecordedBranch
{
    /** Candidate tags, best first; candidate i owns row bits 2i..2i+1. */
    std::vector<Tag> candidates;

    /**
     * One row per execution: each candidate's TagOutcome in its 2-bit
     * field, the branch outcome in bit 31.
     */
    std::vector<uint32_t> rows;
};

/**
 * The candidate pool of the branch at @p pc: the miner's best tags by
 * information gain that pass @p config's method filter, at most
 * candidatePool of them.
 */
std::vector<Tag> candidatePool(const CandidateMiner &miner, uint64_t pc,
                               const OracleConfig &config);

/**
 * Set every static branch's candidatePool() into @p branches (indexed
 * by static id) and return the same pools with each tag's pc resolved
 * to its static id in @p soa and its row field set.
 */
std::vector<std::vector<IdTag>>
assignCandidatePools(const trace::SoABlocks &soa,
                     const CandidateMiner &miner, const OracleConfig &config,
                     std::vector<RecordedBranch> &branches);

/**
 * The record phase's rows: walk @p walk to the end of its trace and
 * append, per execution of each conditional branch, the state of each
 * of its candidates in @p pools to @p branches (both indexed by static
 * id). Each distinct window's tags are matched against its branch's
 * pool once, giving the window entry each in-path candidate reads; a
 * row then reads those entries' outcomes from the last n outcomes.
 * @p walk must not have started.
 */
void recordRows(WindowWalk &walk,
                const std::vector<std::vector<IdTag>> &pools,
                std::vector<RecordedBranch> &branches);

/**
 * The whole record phase over @p walk (a walk at config.historyDepth):
 * assignCandidatePools(), then recordRows(). Returns one RecordedBranch
 * per static id.
 */
std::vector<RecordedBranch> recordStates(WindowWalk &walk,
                                         const CandidateMiner &miner,
                                         const OracleConfig &config);

/** Runs the three oracle phases over one trace. */
class SelectiveOracle
{
  public:
    /**
     * Build and run the oracle. The trace must outlive the constructor
     * call only (results are self-contained).
     */
    SelectiveOracle(const trace::Trace &trace, const OracleConfig &config);

    const OracleConfig &config() const { return config_; }

    /** Per-branch selections and accuracies, in ascending pc order. */
    const PcRows<BranchSelection> &branches() const { return branches_; }

    /** Selection for one branch (nullptr if it never executed). */
    const BranchSelection *branch(uint64_t pc) const;

    /**
     * Per-branch ledger for the size-@p size selective predictor
     * (size = 1..maxSelect). Its accuracyPercent() is the "IF s-branch
     * selective history" series of the paper's Fig. 4; it also feeds
     * best-of combinations with other predictors (Table 2, Fig. 8).
     */
    sim::Ledger toLedger(unsigned size) const;

    /**
     * The per-branch selection map for @p size, usable to instantiate an
     * online SelectivePredictor.
     */
    std::unordered_map<uint64_t, std::vector<Tag>>
    selectionMap(unsigned size) const;

    /**
     * Exact replay score of an arbitrary candidate subset against a
     * recorded state matrix: simulate a fresh 3^m table over the packed
     * rows and count correct predictions. Exposed for tests and the
     * exhaustive mode.
     *
     * @param rows Packed rows (2 bits per candidate, outcome in bit 31).
     * @param subset Candidate indices (into the 2-bit fields) to use.
     */
    static uint64_t replayScore(const std::vector<uint32_t> &rows,
                                const std::vector<unsigned> &subset);

    /** Same-outcome steps after which a 2-bit counter is saturated. */
    static constexpr unsigned kSaturationSteps = 3;

    /**
     * Greedy forward selection over @p k candidates: for sizes
     * 1..@p max_select, extend the previous size's set with the
     * candidate whose extension scores best under replayScore(), ties
     * going to the lowest index. All extensions of one size are scored
     * in a single pass over the runs of @p rows. Once the candidates run
     * out, larger sizes inherit the best smaller set. Exposed for tests.
     *
     * @param saturation_steps Counter steps a run of identical rows
     *     applies at most (1..kSaturationSteps). Exact only at
     *     kSaturationSteps; the check module plants a lower one as a
     *     defect.
     */
    static GreedySelection
    greedySelect(const std::vector<uint32_t> &rows, unsigned k,
                 unsigned max_select,
                 unsigned saturation_steps = kSaturationSteps);

  private:
    double select(const std::vector<RecordedBranch> &recorded,
                  std::vector<BranchSelection> &selections,
                  bool timed) const;
    void selectGreedy(const RecordedBranch &data,
                      BranchSelection &out) const;
    void selectExhaustive(const RecordedBranch &data,
                          BranchSelection &out) const;

    OracleConfig config_;
    PcRows<BranchSelection> branches_;
};

} // namespace copra::core

