#pragma once

#include <cstdint>

/**
 * Corpus: a contracted predictor whose field lists miss one member and
 * double-list another; state-coverage must fire once per field, at the
 * field's declaration.
 */

namespace copra::predictor {

class PlantedUncovered : public Predictor
{
  public:
    bool step(const trace::BranchRecord &br, bool taken) override;

    COPRA_CONFIG_FIELDS(count_);
    COPRA_STATE_FIELDS(count_, table_);

  private:
    int count_ = 0;                              // expect: state-coverage
    int table_ = 0;
    int shadow_ = 0;                             // expect: state-coverage
};

} // namespace copra::predictor
