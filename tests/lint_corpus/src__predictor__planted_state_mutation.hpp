#pragma once

#include <cstdint>

/**
 * Corpus: the mutation rule's two modes. PlantedBare has no state
 * contract at all (state-decl at the class; its cross-TU update body
 * in planted_state_mutation.cc fires state-mutation there).
 * PlantedConfigMut is contracted but mutates a config-listed member in
 * a prediction-path method.
 */

namespace copra::predictor {

class PlantedBare : public Predictor             // expect: state-decl
{
  public:
    bool predict(const trace::BranchRecord &br) override;
    void update(const trace::BranchRecord &br, bool taken) override;
    void reset() override;

  private:
    int hits_ = 0;
};

class PlantedConfigMut : public Predictor
{
  public:
    bool predict(const trace::BranchRecord &br) override;

    void
    update(const trace::BranchRecord &br, bool taken)
    {
        width_ += 1;                             // expect: state-mutation
    }

    void reset() override;

    uint64_t stateBits() const override;

    COPRA_CONFIG_FIELDS(width_);
    COPRA_STATE_FIELDS(table_);

  private:
    int width_ = 0;
    int table_ = 0;
};

} // namespace copra::predictor
