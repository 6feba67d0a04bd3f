/**
 * @file
 * Workload fingerprinting: the quantitative identity of one branch
 * trace, after "Workload Characterization for Branch Predictability"
 * (PAPERS.md). A fingerprint reduces a trace — synthetic or ingested —
 * to the population measures that explain predictor rankings:
 *
 *  - footprint: records, dynamic conditionals, static branch count;
 *  - bias: dynamic taken rate and the paper's ">99% biased" fraction;
 *  - history sensitivity: the conditional-outcome entropy H(k) under a
 *    k-bit global history and under a k-bit per-address history, for a
 *    ladder of depths. H(0) is the unconditioned outcome entropy; the
 *    drop from H(0) to min_k H(k) is the predictability that history
 *    correlation can in principle recover (the paper's §4 decomposition
 *    in information-theoretic form);
 *  - realized accuracy: a reference gshare run and the Lin-Tarsa H2P
 *    set it leaves behind (core/h2p.hpp).
 *
 * The same fingerprint drives three surfaces: `copra_characterize`
 * prints it per workload, emits it as schema'd JSON
 * (docs/schema/fingerprint.schema.json), and regenerates the
 * drift-gated fingerprint table of docs/WORKLOADS.md.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiments.hpp"
#include "core/h2p.hpp"
#include "obs/json.hpp"
#include "trace/branch_streams.hpp"
#include "trace/trace.hpp"

namespace copra::core {

/** Outcome entropy (bits/branch) conditioned on @p depth history bits. */
struct HistoryEntropyPoint
{
    unsigned depth = 0;
    double globalBits = 0.0; //!< conditioned on global outcome history
    double localBits = 0.0;  //!< conditioned on (pc, local history)
};

/** Knobs for one fingerprint computation. */
struct CharacterizeOptions
{
    /** History depths of the H(k) curve, in ascending order. */
    std::vector<unsigned> depths = {0, 1, 2, 4, 8, 12, 16};

    /** Run the reference predictor + H2P analysis (the expensive part;
     * off for entropy-only passes). */
    bool withPredictor = true;

    /** H2P criteria of the reference run (a kGshareSpec gshare). */
    H2pCriteria h2p;
};

/** The quantitative identity of one workload trace. */
struct WorkloadFingerprint
{
    std::string name;
    std::string family; //!< "paper", "frontier", or "foreign"
    uint64_t seed = 0;

    uint64_t records = 0;          //!< all control-transfer kinds
    uint64_t conditionals = 0;     //!< dynamic conditional branches
    uint64_t staticBranches = 0;   //!< distinct conditional pcs
    double takenRate = 0.0;        //!< dynamic taken fraction
    double biasedFraction99 = 0.0; //!< dynamic fraction on >99%-biased pcs

    /** H(k) ladder, one point per CharacterizeOptions::depths entry. */
    std::vector<HistoryEntropyPoint> curve;

    /** Reference gshare accuracy (%); NaN when the trace has no
     * conditionals or withPredictor was off. */
    double gshareAccuracyPercent = 0.0;

    /** Lin-Tarsa H2P set under the reference gshare run. */
    uint64_t h2pBranches = 0;
    double h2pStaticFraction = 0.0;
    double h2pMispredictFraction = 0.0;

    /** Unconditioned outcome entropy H(0), bits/branch. */
    double entropyBits() const;

    /** H(0) minus the deepest global point: bits a global-history
     * correlator can in principle remove. */
    double globalHistoryGainBits() const;

    /** H(0) minus the deepest local point: bits per-address history
     * can in principle remove. */
    double localHistoryGainBits() const;
};

/** Deepest history an entropy ladder accepts (its tables are dense). */
constexpr unsigned kMaxEntropyDepth = 20;

/**
 * Outcome entropy of @p trace's conditional branches under a k-bit
 * global outcome history, in bits per branch, for every k of
 * @p depths (each at most kMaxEntropyDepth), in one pass. Contexts are
 * the 2^k recent-outcome patterns; each result is the
 * execution-weighted average of the per-context binary entropies,
 * summed in ascending context order.
 */
std::vector<double> globalConditionedEntropyBits(
    const trace::Trace &trace, const std::vector<unsigned> &depths);

/**
 * Outcome entropy under a k-bit *per-address* history, for every k of
 * @p depths (each at most kMaxEntropyDepth), over the outcome streams
 * of one trace: contexts are (static branch, local outcome pattern)
 * pairs, summed in ascending (static id, pattern) order. Depth 0 gives
 * the execution-weighted per-branch outcome entropy.
 *
 * Cost: one increment per conditional execution, counting each
 * branch's contexts at the deepest depth only; then, per branch and per
 * shallower depth, one add per deepest context the branch touched
 * (the same history under a narrower mask). Each depth's touched
 * contexts are visited in ascending order through a two-level bitmap,
 * never sorted. Memory: count tables for the deepest and the
 * second-deepest depth, 16 bytes per context.
 */
std::vector<double> localConditionedEntropyBits(
    const trace::BranchStreams &streams,
    const std::vector<unsigned> &depths);

/**
 * Compute the fingerprint of @p trace. One trace::BranchStreams view
 * serves the footprint (stream lengths and popcounts) and the local
 * ladder. While telemetry is on, each call records one
 * sim.phase.characterize.{seconds,cpu_seconds} sample.
 */
WorkloadFingerprint characterizeTrace(const trace::Trace &trace,
                                      const CharacterizeOptions &options);

/** Fingerprint as a JSON object (schema: fingerprint.schema.json;
 * NaN-valued measures are emitted as null). */
obs::Json fingerprintToJson(const WorkloadFingerprint &fp);

/** Wrap fingerprints in the schema'd top-level document. */
obs::Json fingerprintsToJson(
    const std::vector<WorkloadFingerprint> &fps);

/**
 * Render the full docs/WORKLOADS.md: authoring guidance plus the
 * fingerprint table for @p fps (one row per suite workload at the
 * pinned doc budget — see `copra_characterize --doc-workloads`).
 */
std::string renderWorkloadsDoc(
    const std::vector<WorkloadFingerprint> &fps, uint64_t branches);

/** Fingerprint table rows only (used by tests and the doc renderer). */
std::string renderFingerprintTable(
    const std::vector<WorkloadFingerprint> &fps);

/** Family label for a workload name: "paper" for the suite's eight,
 * "frontier" for the frontier families, otherwise "foreign". */
std::string workloadFamily(const std::string &name);

} // namespace copra::core
