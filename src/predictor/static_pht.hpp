/**
 * @file
 * Two-level predictor with a statically determined PHT (Sechrest, Lee &
 * Mudge 1995; Young, Gloy & Smith 1995; paper §2.2).
 *
 * The first level is a normal history mechanism, but the second-level
 * table holds fixed directions computed from a profiling pass (the
 * majority outcome per PHT index) instead of adaptive 2-bit counters.
 * Comparing this against the adaptive TwoLevel on the same profiling and
 * testing set reproduces the adaptivity studies the paper cites: with
 * short per-address histories, or when profiling equals testing, the
 * static PHT performs on par with — sometimes above — 2-bit counters,
 * because it never pays training or hysteresis costs.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "predictor/state.hpp"
#include "predictor/two_level.hpp"
#include "trace/trace.hpp"

namespace copra::predictor {

/**
 * A two-level predictor whose PHT is a fixed direction table filled by
 * profiling. Construct via profile().
 */
class StaticPhtTwoLevel : public Predictor
{
  public:
    /**
     * Profile @p trace under geometry @p config: simulate the first
     * level exactly as TwoLevel would, tally outcomes per PHT index, and
     * freeze each entry at its majority direction (ties and never-seen
     * entries default taken).
     */
    static StaticPhtTwoLevel profile(const trace::Trace &trace,
                                     const TwoLevelConfig &config);

    bool step(const trace::BranchRecord &br, bool taken) noexcept override;
    uint64_t
    predictUpdateSoa(const SoaBatch &batch, uint8_t *out) noexcept override
    {
        return stepBatch(*this, batch, out);
    }
    std::string name() const override;

    /** Fraction of PHT entries that were exercised during profiling. */
    double coverage() const;

    // Field taxonomy (DESIGN.md §14): only the first-level histories
    // are adaptive; the profiled direction table is frozen
    // configuration.
    COPRA_CONFIG_FIELDS(directions_, covered_);
    COPRA_STATE_FIELDS(indexer_);

  private:
    StaticPhtTwoLevel(const TwoLevelConfig &config,
                      std::vector<uint8_t> directions, size_t covered);

    /** First-level machinery reused from TwoLevel for exact indexing. */
    TwoLevel indexer_;
    std::vector<uint8_t> directions_;
    size_t covered_;
};

} // namespace copra::predictor

