#pragma once

#include <cstdint>

/**
 * Corpus: every state rule in suppressed form. A scratch member kept
 * out of the lists, a list entry for a member that migrated away, and
 * a deliberate config write in update() — each justified with an
 * allow() on its line.
 */

namespace copra::predictor {

class SuppressedState : public Predictor
{
  public:
    bool predict(const trace::BranchRecord &br) override;

    void
    update(const trace::BranchRecord &br, bool taken)
    {
        width_ += 1; // copra-lint: allow(state-mutation) -- corpus: adaptive geometry experiment
    }

    void reset() override;

    uint64_t stateBits() const override;

    COPRA_CONFIG_FIELDS(width_);
    COPRA_STATE_FIELDS(table_, ghost_); // copra-lint: allow(state-decl) -- corpus: member mid-migration

  private:
    int width_ = 0;
    int table_ = 0;
    int scratch_ = 0; // copra-lint: allow(state-coverage) -- corpus: debug-only scratch slot
};

} // namespace copra::predictor
