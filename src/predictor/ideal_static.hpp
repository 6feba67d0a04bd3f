/**
 * @file
 * The "ideal static" predictor (paper §4.1): for each static branch,
 * always predict the direction the branch takes most often over the whole
 * run. This is the best any static predictor can do, and the paper uses
 * it as the floor against which the dynamic predictability classes are
 * measured. It requires profile knowledge, so it is built from a
 * completed trace (or any per-branch taken/not-taken profile).
 */

#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "predictor/predictor.hpp"
#include "predictor/state.hpp"
#include "trace/trace.hpp"

namespace copra::predictor {

/** Profile-based per-branch majority-direction predictor. */
class IdealStatic : public Predictor
{
  public:
    /** Construct with an explicit pc -> majority-direction table. */
    explicit IdealStatic(std::unordered_map<uint64_t, bool> majority);

    /** Profile @p trace and build the ideal static predictor for it. */
    static IdealStatic fromTrace(const trace::Trace &trace);

    bool step(const trace::BranchRecord &br, bool taken) noexcept override;
    uint64_t
    predictUpdateSoa(const SoaBatch &batch, uint8_t *out) noexcept override
    {
        return stepBatch(*this, batch, out);
    }
    void reset() override {} // profile knowledge is not adaptive state
    std::string name() const override { return "ideal-static"; }

    /** Number of profiled branches. */
    size_t branches() const { return majority_.size(); }

    // State contract (DESIGN.md §14): the profile table is frozen at
    // construction and never mutated — configuration, not mutable state.
    uint64_t stateBits() const override { return 0; }

    COPRA_CONFIG_FIELDS(majority_);
    COPRA_STATE_FIELDS();

  private:
    std::unordered_map<uint64_t, bool> majority_;
};

} // namespace copra::predictor

