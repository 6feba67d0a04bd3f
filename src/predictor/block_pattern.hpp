/**
 * @file
 * Block-pattern predictor (paper §4.1.2): captures branches that are
 * taken n times, then not-taken m times, then taken n times, and so on.
 *
 * After the n-th consecutive taken outcome it predicts not-taken for the
 * previous not-taken block length m, and symmetrically for taken blocks.
 * Counts are kept per branch in a BTB (perfect by default, finite for
 * the capacity ablation), saturating at 255, as the paper assumes
 * (n < 256, m < 256).
 */

#pragma once

#include <cstdint>
#include <string>

#include "predictor/btb.hpp"
#include "predictor/predictor.hpp"
#include "predictor/state.hpp"

namespace copra::predictor {

/**
 * Per-branch block tracking state and its one transition function,
 * shared by BlockPatternPredictor and the per-address classifier.
 */
struct BlockState
{
    bool seen = false;
    bool curDir = true;     //!< direction of the in-progress block
    uint8_t curRun = 0;     //!< length of the in-progress block so far
    uint8_t lastRun[2] = {255, 255}; //!< last completed block length per
                                     //!< direction, [0]=not-taken [1]=taken

    /**
     * Predict, train on @p taken (block lengths saturate at 255) and
     * return the prediction: continue the current block until it
     * reaches the length of the last completed block in the same
     * direction, then switch; taken while cold.
     */
    bool step(bool taken) noexcept;
};

/** The paper's block-pattern class predictor. */
class BlockPatternPredictor : public Predictor
{
  public:
    /** @param btb BTB geometry; perfect (the paper's setup) by default. */
    explicit BlockPatternPredictor(
        const BtbConfig &btb = BtbConfig::perfect())
        : table_(btb)
    {
    }

    bool step(const trace::BranchRecord &br, bool taken) noexcept override;
    uint64_t
    predictUpdateSoa(const SoaBatch &batch, uint8_t *out) noexcept override
    {
        return stepBatch(*this, batch, out);
    }
    std::string name() const override;

    /** Current state for @p pc (default state if absent). */
    BlockState state(uint64_t pc) const;

    /** BTB evictions suffered (0 with a perfect BTB). */
    uint64_t btbEvictions() const { return table_.evictions(); }

    COPRA_STATE_FIELDS(table_);

  private:
    BtbTable<BlockState> table_;
};

} // namespace copra::predictor

