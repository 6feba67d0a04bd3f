/**
 * @file
 * The paper's hypothetical selective-history predictor (§3.4).
 *
 * Instead of a shift register of the last n outcomes, the first-level
 * history records the state of 1-3 specific tagged branch instances,
 * each encoded with three values: taken, not-taken, or not-in-path (the
 * instance did not occur in the last n branches). A set of m instances
 * therefore produces 3^m patterns, each selecting a 2-bit counter in a
 * per-branch (interference-free) second-level table, predicted and
 * updated exactly like a global two-level predictor.
 */

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/tagging.hpp"
#include "predictor/predictor.hpp"
#include "util/sat_counter.hpp"

namespace copra::core {

/** Encode a collected window against one watched tag. */
TagOutcome stateOf(const std::vector<TagState> &collected, const Tag &tag) noexcept;

/** 3^m for m in 0..8 (pattern table sizes). */
constexpr uint32_t
pow3(unsigned m)
{
    uint32_t v = 1;
    for (unsigned i = 0; i < m; ++i)
        v *= 3;
    return v;
}

/**
 * A per-branch second-level table over 3^m selective-history patterns.
 * Counters start weakly-not-taken (see DESIGN.md §5, ablated).
 */
class SelectiveTable
{
  public:
    /** @param arity Number of watched instances m (1..8). */
    explicit SelectiveTable(unsigned arity);

    /** Pattern index of a state vector (radix-3 little-endian). */
    static uint32_t patternOf(const TagOutcome *states, unsigned arity) noexcept;

    /** Predict for @p pattern, then train its counter with @p taken. */
    bool step(uint32_t pattern, bool taken) noexcept;

    unsigned arity() const noexcept { return arity_; }

  private:
    unsigned arity_;
    std::vector<Counter2> counters_;
};

/**
 * Online selective-history predictor over a fixed per-branch selection of
 * watched tags (normally produced by the SelectiveOracle). Branches with
 * no selection fall back to a per-branch bare 2-bit counter, which is the
 * m = 0 degenerate case of the scheme.
 *
 * Unlike table predictors it must see the whole instruction stream (for
 * backward-jump bookkeeping); the simulation driver delivers
 * non-conditional records through observe().
 */
class SelectivePredictor : public predictor::Predictor
{
  public:
    /**
     * @param selections Watched tags per static branch (size 1..8 each).
     * @param depth History window depth n.
     */
    SelectivePredictor(
        std::unordered_map<uint64_t, std::vector<Tag>> selections,
        unsigned depth);

    bool step(const trace::BranchRecord &br, bool taken) noexcept override;
    uint64_t
    predictUpdateSoa(const predictor::SoaBatch &batch,
                     uint8_t *out) noexcept override
    {
        return predictor::stepBatch(*this, batch, out);
    }
    void observe(const trace::BranchRecord &br) noexcept override;
    std::string name() const override;

  private:
    uint32_t currentPattern(uint64_t pc) noexcept;

    std::unordered_map<uint64_t, std::vector<Tag>> selections_;
    unsigned depth_;
    HistoryWindow window_;
    std::unordered_map<uint64_t, SelectiveTable> tables_;
    std::vector<TagState> scratch_;
};

} // namespace copra::core

