/**
 * @file
 * Branch history shift register: the first-level history of a two-level
 * adaptive branch predictor (Yeh & Patt, 1991).
 */

#pragma once

#include <cstdint>

#include "util/logging.hpp"

namespace copra {

/**
 * A k-bit shift register recording the outcomes of the most recent k
 * branches, newest outcome in the least significant bit.
 *
 * Supports histories of up to 64 bits, which covers every configuration in
 * the paper (8..32).
 */
class HistoryRegister
{
  public:
    /** @param length History length in bits, 0..64. */
    explicit HistoryRegister(unsigned length = 16)
        : length_(length),
          mask_(length >= 64 ? ~uint64_t(0) : ((uint64_t(1) << length) - 1)),
          bits_(0)
    {
        panicIf(length > 64, "HistoryRegister supports at most 64 bits");
    }

    /** History length in bits. */
    unsigned length() const { return length_; }

    /** Current history pattern; newest outcome in bit 0. */
    uint64_t value() const noexcept { return bits_; }

    /** Mask covering the configured length. */
    uint64_t mask() const { return mask_; }

    /** Shift in a new outcome (true = taken). */
    void
    push(bool taken) noexcept
    {
        bits_ = ((bits_ << 1) | (taken ? 1u : 0u)) & mask_;
    }

    /** Outcome of the branch @p ago positions back (0 = most recent). */
    bool
    outcome(unsigned ago) const
    {
        panicIf(ago >= length_, "HistoryRegister::outcome out of range");
        return (bits_ >> ago) & 1u;
    }

  private:
    unsigned length_;
    uint64_t mask_;
    uint64_t bits_;
};

} // namespace copra

