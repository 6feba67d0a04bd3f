/**
 * @file
 * Hashed perceptron predictor (Tarjan & Skadron, 2005 lineage): N small
 * weight tables, each indexed by the XOR of the branch address with one
 * folded segment of global history, summed with integer-only arithmetic
 * and trained against an adaptively tuned magnitude threshold
 * (Seznec's O-GEHL threshold-fitting counter).
 *
 * Compared with the original per-branch perceptron, hashing shares the
 * weight storage across branches (capacity), bounds the adder tree to N
 * terms regardless of history length (latency), and lets mildly
 * conflicting branches share weights gracefully (interference behaves
 * like gshare's, analyzed in EXPERIMENTS.md). Implementation choices are
 * documented in DESIGN.md §13.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "predictor/history_fold.hpp"
#include "predictor/predictor.hpp"
#include "predictor/state.hpp"

namespace copra::predictor {

/** Geometry and training policy of a hashed perceptron. */
struct PerceptronConfig
{
    unsigned tableBits = 12;   //!< log2 entries per weight table
    unsigned numTables = 8;    //!< weight tables, including the bias table
    unsigned segmentBits = 8;  //!< history bits folded into each table
    int weightMin = -64;       //!< saturation floor (inclusive)
    int weightMax = 63;        //!< saturation ceiling (inclusive)
    int initialTheta = 18;     //!< starting training threshold
    int thetaCounterSat = 64;  //!< adaptation counter saturation (TC)
    std::string label = "perceptron";

    /** History bits consumed: (numTables - 1) segments. */
    unsigned historyBits() const { return (numTables - 1) * segmentBits; }
};

/** Observable internals for tests and telemetry. */
struct PerceptronStats
{
    uint64_t trainEvents = 0;     //!< updates that adjusted weights
    uint64_t thresholdAdapts = 0; //!< theta increments + decrements
};

/** A hashed perceptron realized from a PerceptronConfig. */
class Perceptron : public Predictor
{
  public:
    explicit Perceptron(const PerceptronConfig &config);
    ~Perceptron() override;

    bool step(const trace::BranchRecord &br, bool taken) noexcept override;
    uint64_t
    predictUpdateSoa(const SoaBatch &batch, uint8_t *out) noexcept override
    {
        return stepBatch(*this, batch, out);
    }
    std::string name() const override;

    const PerceptronConfig &config() const { return config_; }
    const PerceptronStats &stats() const { return stats_; }

    /** Current training threshold (tests: adaptation moves it). */
    int theta() const { return theta_; }

    /** Largest |weight| currently stored (tests: saturation bound). */
    int maxAbsWeight() const;

    COPRA_CONFIG_FIELDS(config_, folds_);
    COPRA_STATE_FIELDS(tables_, history_, theta_, thetaCtr_);
    COPRA_TRANSIENT_FIELDS(stats_);

  protected:
    static constexpr unsigned kMaxTables = 16;

    /** The weighted sum for @p pc under the current history; each
     *  table's index goes to @p index (kMaxTables entries). */
    int sumOf(uint64_t pc, size_t *index) const noexcept;

    /**
     * Saturate @p weight one step toward @p taken. Virtual as the seam
     * for the differential harness's wraparound planted bug
     * (check/differential.cc); real subclasses are not expected.
     */
    virtual int clampWeight(int weight, bool taken) const noexcept;

  private:
    size_t indexOf(unsigned table, uint64_t pc) const noexcept;

    PerceptronConfig config_;
    std::vector<std::vector<int16_t>> tables_; //!< [table][index] weights
    std::vector<unsigned> folds_; //!< fold id per table (slot 0 unused)
    FoldedHistory history_;
    int theta_;       //!< current training threshold
    int thetaCtr_ = 0; //!< threshold-fitting counter (TC)
    PerceptronStats stats_;
};

} // namespace copra::predictor
