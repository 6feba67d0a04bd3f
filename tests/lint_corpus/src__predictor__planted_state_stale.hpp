#pragma once

#include <cstdint>

/**
 * Corpus: two state-decl shapes. PlantedStale's field list names a
 * member the class does not have (fires at the macro); PlantedHalf
 * declares the list, which defines its snapshot/restore pair, but not
 * stateBits() (fires at the class).
 */

namespace copra::predictor {

class PlantedStale : public Predictor
{
  public:
    bool predict(const trace::BranchRecord &br) override;
    void update(const trace::BranchRecord &br, bool taken) override;
    void reset() override;

    uint64_t stateBits() const override;

    COPRA_STATE_FIELDS(table_, ghost_);          // expect: state-decl

  private:
    int table_ = 0;
};

class PlantedHalf : public Predictor             // expect: state-decl
{
  public:
    bool predict(const trace::BranchRecord &br) override;
    void update(const trace::BranchRecord &br, bool taken) override;
    void reset() override;

    COPRA_STATE_FIELDS(table_);

  private:
    int table_ = 0;
};

} // namespace copra::predictor
