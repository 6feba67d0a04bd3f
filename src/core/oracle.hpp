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
 * Cost per dynamic conditional branch, at window depth n and pool K:
 *
 *  - Mine and record each walk the window once (HistoryWindow::collect
 *    is O(n): one newest-first pass with a small per-pc table) and get
 *    up to 2n tagged instances back.
 *  - Mine charges each instance with one probe of the branch's flat
 *    contingency table (TagTable).
 *  - Record looks each instance up once in the branch's 32-slot
 *    candidate index and sets that candidate's 2-bit field, instead of
 *    scanning the window once per candidate.
 *  - Select makes one pass over a branch's rows per size and scores all
 *    K extensions of the current set in it, with K counter tables side
 *    by side: 3 passes per branch instead of K + (K-1) + (K-2) subset
 *    replays. replayScore() stays the reference scorer and scores the
 *    exhaustive mode.
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
     * Aggregate accuracy (%) of the size-@p size selective history over
     * all dynamic branches (size = 1..maxSelect). This is the "IF
     * s-branch selective history" series of the paper's Fig. 4.
     */
    double accuracyPercent(unsigned size) const;

    /**
     * Per-branch ledger for the size-@p size selective predictor, for
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

    /**
     * Greedy forward selection over @p k candidates: for sizes
     * 1..@p max_select, extend the previous size's set with the
     * candidate whose extension scores best under replayScore(), ties
     * going to the lowest index. All extensions of one size are scored
     * in a single pass over @p rows. Once the candidates run out, larger
     * sizes inherit the best smaller set. Exposed for tests.
     */
    static GreedySelection greedySelect(const std::vector<uint32_t> &rows,
                                        unsigned k, unsigned max_select);

  private:
    /** Open-addressed slots indexing a branch's candidate tags. */
    static constexpr unsigned kCandidateSlots = 32;

    struct BranchData
    {
        std::vector<Tag> candidates;      // at most K
        std::vector<uint32_t> rows;       // packed states + outcome
        // Candidate index by tag: slotField[s] is 1 + the candidate's
        // 2-bit field number (0 = empty slot), slotKey[s] its packed tag.
        std::array<uint64_t, kCandidateSlots> slotKey{};
        std::array<uint8_t, kCandidateSlots> slotField{};
    };

    void record(const trace::SoABlocks &soa, const CandidateMiner &miner,
                std::vector<BranchData> &data_by_id,
                std::vector<BranchSelection> &selections) const;
    double select(const std::vector<BranchData> &data_by_id,
                  std::vector<BranchSelection> &selections,
                  bool timed) const;
    void selectGreedy(const BranchData &data, BranchSelection &out) const;
    void selectExhaustive(const BranchData &data,
                          BranchSelection &out) const;

    OracleConfig config_;
    PcRows<BranchSelection> branches_;
};

} // namespace copra::core

