#pragma once

#include <cstdint>

/**
 * Corpus: the mutation rule's two modes, on step(), the prediction
 * entry point. PlantedBare has no state contract at all (state-decl at
 * the class; its cross-TU step body in planted_state_mutation.cc fires
 * state-mutation there). PlantedConfigMut and PlantedStepConfig are
 * contracted but mutate a config-listed member in step(): in the
 * header and out of line in planted_state_mutation.cc.
 */

namespace copra::predictor {

class PlantedBare : public Predictor             // expect: state-decl
{
  public:
    bool step(const trace::BranchRecord &br, bool taken) override;

  private:
    int hits_ = 0;
};

class PlantedConfigMut : public Predictor
{
  public:
    bool
    step(const trace::BranchRecord &br, bool taken) override
    {
        width_ += 1;                             // expect: state-mutation
        return table_ > 0;
    }

    COPRA_CONFIG_FIELDS(width_);
    COPRA_STATE_FIELDS(table_);

  private:
    int width_ = 0;
    int table_ = 0;
};

class PlantedStepConfig : public Predictor
{
  public:
    bool step(const trace::BranchRecord &br, bool taken) override;

    COPRA_CONFIG_FIELDS(mask_);
    COPRA_STATE_FIELDS(counter_);

  private:
    uint64_t mask_ = 0;
    int counter_ = 0;
};

} // namespace copra::predictor
