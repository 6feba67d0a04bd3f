/**
 * @file
 * Hard-to-predict (H2P) branch analysis, after Lin & Tarsa's "Branch
 * Prediction Is Not a Solved Problem" (PAPERS.md): the mispredictions
 * that survive a strong predictor concentrate in a small set of static
 * branches that execute often and still miss. This module identifies
 * them, builds per-static-branch misprediction CDFs, and measures how
 * stable the H2P set is across workload seeds — the modern-roster
 * extension of the paper's per-branch "why" analysis (EXPERIMENTS.md).
 *
 * Everything here is a pure function of ledgers (sim/ledger.hpp), so
 * the same analysis applies to any predictor in the roster, including
 * the per-branch best-of combination that realizes "the best predictor
 * we have" from the Lin-Tarsa criterion.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "sim/ledger.hpp"

namespace copra::core {

/** The Lin-Tarsa H2P membership criterion. */
struct H2pCriteria
{
    uint64_t minExecs = 1000;        //!< dynamic executions floor
    double accuracyThreshold = 0.99; //!< H2P iff accuracy < threshold
};

/** One hard-to-predict static branch. */
struct H2pBranch
{
    uint64_t pc = 0;
    uint64_t execs = 0;
    uint64_t mispredicts = 0;
    double accuracy = 0.0; //!< in [0, 1]
};

/** The H2P set of one (workload, predictor) ledger. */
struct H2pReport
{
    H2pCriteria criteria;
    /** H2P branches, highest misprediction contribution first
     * (ties broken by ascending pc). */
    std::vector<H2pBranch> branches;
    uint64_t staticBranches = 0;   //!< all static branches in the ledger
    uint64_t dynamicBranches = 0;  //!< all dynamic executions
    uint64_t totalMispredicts = 0; //!< all mispredictions
    uint64_t h2pMispredicts = 0;   //!< mispredictions on H2P branches

    /** Fraction of static branches that are H2P (0 when empty). */
    double staticFraction() const;

    /** Fraction of all mispredictions charged to H2P branches. */
    double mispredictFraction() const;
};

/** Identify the H2P set of @p ledger under @p criteria. */
H2pReport identifyH2p(const sim::Ledger &ledger,
                      const H2pCriteria &criteria = {});

/** "Under the best predictor" in the Lin-Tarsa criterion. */
using sim::bestPerBranchLedger;

/**
 * Per-static-branch misprediction CDF: branches sorted by descending
 * misprediction count, with the cumulative fraction of all
 * mispredictions alongside. points[k].cumulativeFraction is the share
 * of mispredictions charged to the k+1 worst branches.
 */
struct MispredictCdf
{
    struct Point
    {
        uint64_t pc = 0;
        uint64_t mispredicts = 0;
        double cumulativeFraction = 0.0;
    };

    std::vector<Point> points; //!< descending mispredicts; ties by pc
    uint64_t totalMispredicts = 0;

    /**
     * Fraction of all mispredictions charged to the worst
     * ceil(percent% of static branches) branches (e.g. 1.0 -> "the top
     * 1% of branches account for this share of mispredictions").
     */
    double fractionFromTopPercent(double percent) const;

    /** Fewest branches whose mispredictions reach @p fraction of the
     * total (0 when there are no mispredictions). */
    uint64_t branchesForFraction(double fraction) const;
};

/** Build the misprediction CDF of @p ledger. */
MispredictCdf mispredictCdf(const sim::Ledger &ledger);

/** Stability of the H2P set across workload seeds (Lin-Tarsa track
 * H2Ps across inputs; a stable set means the same static branches stay
 * hard no matter the run). */
struct H2pStability
{
    uint64_t unionSize = 0;        //!< pcs H2P in at least one seed
    uint64_t intersectionSize = 0; //!< pcs H2P in every seed
    double jaccard = 0.0;          //!< intersection / union (1.0 if both 0)
};

/** Compare the H2P sets of @p reports (one per seed). */
H2pStability h2pStability(const std::vector<H2pReport> &reports);

} // namespace copra::core
