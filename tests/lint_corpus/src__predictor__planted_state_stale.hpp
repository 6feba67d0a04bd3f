#pragma once

#include <cstdint>

/**
 * Corpus: a state-decl shape. PlantedStale's field list names a member
 * the class does not have (fires at the macro).
 */

namespace copra::predictor {

class PlantedStale : public Predictor
{
  public:
    bool step(const trace::BranchRecord &br, bool taken) override;

    COPRA_STATE_FIELDS(table_, ghost_);          // expect: state-decl

  private:
    int table_ = 0;
};

} // namespace copra::predictor
