/**
 * @file
 * Static (non-adaptive) predictors: always-taken, always-not-taken, and
 * backward-taken/forward-not-taken. The profile-based "ideal static"
 * predictor needs no predictor object: core::idealStaticLedger derives
 * its per-branch counts from any ledger of the trace.
 */

#pragma once

#include <cstdint>
#include <string>

#include "predictor/predictor.hpp"
#include "predictor/state.hpp"

namespace copra::predictor {

/** Predicts every branch taken. */
class AlwaysTaken : public Predictor
{
  public:
    bool
    step(const trace::BranchRecord &, bool) noexcept override
    {
        return true;
    }
    uint64_t
    predictUpdateSoa(const SoaBatch &batch, uint8_t *out) noexcept override
    {
        return stepBatch(*this, batch, out);
    }
    std::string name() const override { return "always-taken"; }

    COPRA_STATE_FIELDS();
};

/** Predicts every branch not-taken. */
class AlwaysNotTaken : public Predictor
{
  public:
    bool
    step(const trace::BranchRecord &, bool) noexcept override
    {
        return false;
    }
    uint64_t
    predictUpdateSoa(const SoaBatch &batch, uint8_t *out) noexcept override
    {
        return stepBatch(*this, batch, out);
    }
    std::string name() const override { return "always-not-taken"; }

    COPRA_STATE_FIELDS();
};

/**
 * Backward-taken / forward-not-taken: the classic static heuristic that
 * assumes backward branches close loops.
 */
class Btfnt : public Predictor
{
  public:
    bool
    step(const trace::BranchRecord &br, bool) noexcept override
    {
        return br.isBackward();
    }
    uint64_t
    predictUpdateSoa(const SoaBatch &batch, uint8_t *out) noexcept override
    {
        return stepBatch(*this, batch, out);
    }
    std::string name() const override { return "btfnt"; }

    COPRA_STATE_FIELDS();
};

} // namespace copra::predictor

