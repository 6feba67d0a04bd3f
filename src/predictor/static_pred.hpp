/**
 * @file
 * Static (non-adaptive) predictors: always-taken, always-not-taken, and
 * backward-taken/forward-not-taken. The profile-based "ideal static"
 * predictor lives in predictor/ideal_static.hpp.
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
    bool predict(const trace::BranchRecord &) noexcept override { return true; }
    void update(const trace::BranchRecord &, bool) noexcept override {}
    void reset() override {}
    std::string name() const override { return "always-taken"; }

    COPRA_STATE_FIELDS();
    uint64_t stateBits() const override { return 0; }
};

/** Predicts every branch not-taken. */
class AlwaysNotTaken : public Predictor
{
  public:
    bool predict(const trace::BranchRecord &) noexcept override { return false; }
    void update(const trace::BranchRecord &, bool) noexcept override {}
    void reset() override {}
    std::string name() const override { return "always-not-taken"; }

    COPRA_STATE_FIELDS();
    uint64_t stateBits() const override { return 0; }
};

/**
 * Backward-taken / forward-not-taken: the classic static heuristic that
 * assumes backward branches close loops.
 */
class Btfnt : public Predictor
{
  public:
    bool
    predict(const trace::BranchRecord &br) noexcept override
    {
        return br.isBackward();
    }
    void update(const trace::BranchRecord &, bool) noexcept override {}
    void reset() override {}
    std::string name() const override { return "btfnt"; }

    COPRA_STATE_FIELDS();
    uint64_t stateBits() const override { return 0; }
};

} // namespace copra::predictor

