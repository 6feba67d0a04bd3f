#pragma once

#include <cstdint>

/**
 * Corpus: every state rule in suppressed form. A scratch member kept
 * out of the lists, a list entry for a member that migrated away, and
 * a deliberate config write in step() — each justified with an
 * allow() on its line.
 */

namespace copra::predictor {

class SuppressedState : public Predictor
{
  public:
    bool
    step(const trace::BranchRecord &br, bool taken) override
    {
        width_ += 1; // copra-lint: allow(state-mutation) -- corpus: adaptive geometry experiment
        return table_ > 0;
    }

    COPRA_CONFIG_FIELDS(width_);
    COPRA_STATE_FIELDS(table_, ghost_); // copra-lint: allow(state-decl) -- corpus: member mid-migration

  private:
    int width_ = 0;
    int table_ = 0;
    int scratch_ = 0; // copra-lint: allow(state-coverage) -- corpus: debug-only scratch slot
};

} // namespace copra::predictor
