/**
 * @file
 * Bimodal predictor (Smith, 1981): a table of 2-bit saturating counters
 * indexed by branch address.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "predictor/predictor.hpp"
#include "predictor/state.hpp"
#include "util/sat_counter.hpp"

namespace copra::predictor {

/**
 * A direct-mapped table of 2^tableBits two-bit counters indexed by the
 * branch address. Aliasing between branches mapping to the same counter
 * is real, as in hardware.
 */
class Bimodal : public Predictor
{
  public:
    /** @param table_bits log2 of the number of counters (1..30). */
    explicit Bimodal(unsigned table_bits = 12);

    bool step(const trace::BranchRecord &br, bool taken) noexcept override;
    uint64_t
    predictUpdateSoa(const SoaBatch &batch, uint8_t *out) noexcept override
    {
        return stepBatch(*this, batch, out);
    }

    std::string name() const override;

    /** Number of counters in the table. */
    size_t tableSize() const { return table_.size(); }

    COPRA_CONFIG_FIELDS(tableBits_);
    COPRA_STATE_FIELDS(table_);

  private:
    size_t indexOf(uint64_t pc) const noexcept;

    unsigned tableBits_;
    std::vector<Counter2> table_;
};

} // namespace copra::predictor

