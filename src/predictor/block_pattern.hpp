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
#include <tuple>

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
     * Continue the current block until it reaches the length of the
     * last completed block in the same direction, then switch; taken
     * while cold.
     */
    bool
    predict() const noexcept
    {
        if (!seen)
            return true;
        return curRun < lastRun[curDir ? 1 : 0] ? curDir : !curDir;
    }

    /** Train on one outcome (block lengths saturate at 255). */
    void update(bool taken) noexcept;

    /** Snapshot members, in order (predictor/state.hpp). */
    static auto
    stateFields(auto &s)
    {
        return std::tie(s.seen, s.curDir, s.curRun, s.lastRun[0],
                        s.lastRun[1]);
    }
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

    bool predict(const trace::BranchRecord &br) noexcept override;
    void update(const trace::BranchRecord &br, bool taken) noexcept override;
    void reset() override;
    std::string name() const override;

    /** Current state for @p pc (default state if absent). */
    BlockState state(uint64_t pc) const;

    /** BTB evictions suffered (0 with a perfect BTB). */
    uint64_t btbEvictions() const { return table_.evictions(); }

    // State contract (DESIGN.md §14): per tracked branch, 2 flag bits
    // plus three 8-bit run counts (26 payload bits), on top of the
    // BTB's own tag/bookkeeping accounting.
    uint64_t stateBits() const override { return table_.stateBits(26); }

    COPRA_STATE_FIELDS(table_);

  private:
    BtbTable<BlockState> table_;
};

} // namespace copra::predictor

