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

    bool predict(const trace::BranchRecord &br) noexcept override;
    void update(const trace::BranchRecord &br, bool taken) noexcept override;
    void reset() override;
    std::string name() const override;

    const PerceptronConfig &config() const { return config_; }
    const PerceptronStats &stats() const { return stats_; }

    /** Current training threshold (tests: adaptation moves it). */
    int theta() const { return theta_; }

    /** Largest |weight| currently stored (tests: saturation bound). */
    int maxAbsWeight() const;

    // State contract (DESIGN.md §14): enough bits per weight to span
    // [weightMin, weightMax], plus the folded history and the adaptive
    // threshold machinery (theta and its fitting counter, 16 bits each
    // by the O-GEHL convention).
    uint64_t
    stateBits() const override
    {
        const uint64_t span =
            uint64_t(config_.weightMax - config_.weightMin) + 1;
        uint64_t weight_bits = 1;
        while ((uint64_t(1) << weight_bits) < span)
            ++weight_bits;
        uint64_t weights = 0;
        for (const auto &table : tables_)
            weights += table.size();
        return weights * weight_bits + config_.historyBits() + 16 + 16;
    }

    void
    snapshotState(state::Writer &w) const override
    {
        w.u64(tables_.size());
        for (const auto &table : tables_)
            state::writeVec(w, table, [](state::Writer &out, int16_t v) {
                out.i16(v);
            });
        history_.snapshot(w);
        w.i32(theta_);
        w.i32(thetaCtr_);
    }

    void
    restoreState(state::Reader &r) override
    {
        panicIf(r.u64() != tables_.size(),
                "Perceptron restore: weight-table count mismatch");
        for (auto &table : tables_)
            state::readVec(r, table, [](state::Reader &in, int16_t &v) {
                v = in.i16();
            });
        history_.restore(r);
        theta_ = r.i32();
        thetaCtr_ = r.i32();
    }

    COPRA_CONFIG_FIELDS(config_, folds_);
    COPRA_STATE_FIELDS(tables_, history_, theta_, thetaCtr_);
    COPRA_TRANSIENT_FIELDS(stats_);

  protected:
    /**
     * Saturate @p weight one step toward @p taken. Virtual as the seam
     * for the differential harness's wraparound planted bug
     * (check/differential.cc); real subclasses are not expected.
     */
    virtual int clampWeight(int weight, bool taken) const noexcept;

  private:
    int sumOf(uint64_t pc) const noexcept;
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
