/**
 * @file
 * Loop predictor (paper §4.1.1): captures "for-type" branches (taken n
 * times, then not-taken once) and "while-type" branches (not-taken n
 * times, then taken once), where n stays the same or changes infrequently.
 *
 * The predictor makes n predictions in a row of one direction, then a
 * single prediction of the opposite direction; n is the length of the
 * branch's previous same-direction run. A direction bit distinguishes the
 * for/while flavours. Per-branch state lives in a BTB: perfect by default
 * (the paper's choice, so classification is never polluted by table
 * interference), or finite set-associative for the capacity ablation.
 * Run lengths saturate at 255 (the paper assumes n < 256).
 */

#pragma once

#include <cstdint>
#include <string>

#include "predictor/btb.hpp"
#include "predictor/predictor.hpp"
#include "predictor/state.hpp"

namespace copra::predictor {

/**
 * Per-branch loop tracking state and its one transition function,
 * shared by LoopPredictor and the per-address classifier.
 */
struct LoopState
{
    bool seen = false;   //!< any outcome observed yet
    bool dir = true;     //!< the repeated ("body") direction
    uint8_t run = 0;     //!< length of the current same-direction run
    uint8_t trip = 255;  //!< learned n: previous run length of `dir`

    /**
     * Predict, train on @p taken (run lengths saturate at 255) and
     * return the prediction: the body direction for the learned trip
     * count, then one prediction of the exit direction; taken while
     * cold.
     */
    bool step(bool taken) noexcept;
};

/** The paper's loop-class predictor. */
class LoopPredictor : public Predictor
{
  public:
    /** @param btb BTB geometry; perfect (the paper's setup) by default. */
    explicit LoopPredictor(const BtbConfig &btb = BtbConfig::perfect())
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
    LoopState state(uint64_t pc) const;

    /** BTB evictions suffered (0 with a perfect BTB). */
    uint64_t btbEvictions() const { return table_.evictions(); }

    COPRA_STATE_FIELDS(table_);

  private:
    BtbTable<LoopState> table_;
};

} // namespace copra::predictor

