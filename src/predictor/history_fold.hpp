/**
 * @file
 * Long global branch history with block folding, shared by the
 * modern-predictor roster (TAGE-lite, hashed perceptron).
 *
 * The compressed value has one *stateless* definition: fold(L, C) is the
 * XOR of consecutive C-bit chunks of the newest L history bits (newest
 * outcome in bit 0 of chunk 0), so outcome j lands in output bit j % C.
 * The clarity-first reference models (check/ref_models.hpp) recompute it
 * bit-for-bit from a plain std::vector<bool>.
 *
 * Consumers do not call fold() per lookup. Each registers its (L, C)
 * pairs once with track(), and push() keeps every tracked fold current
 * in O(1) — Seznec's circular shift register: shift the new outcome in,
 * cancel the outcome leaving the window at bit L % C, and wrap bit C
 * back to bit 0. That places outcome j at bit j % C exactly as fold()
 * does, so the registers and the definition cannot disagree without a
 * differential mismatch (DESIGN.md §13).
 */

#pragma once

#include <cstdint>

#include "util/logging.hpp"

namespace copra::predictor {

/**
 * The newest kMaxBits outcomes of the global branch history, packed into
 * words (newest outcome in bit 0 of word 0), with chunked folding down
 * to table-index width and up to kMaxTracked incrementally maintained
 * folds.
 */
class FoldedHistory
{
  public:
    /** Longest history window any consumer may fold. */
    static constexpr unsigned kMaxBits = 128;

    /** Most folds one history can track: TAGE's 8 tables x 3 folds. */
    static constexpr unsigned kMaxTracked = 24;

    /**
     * Register the fold of the newest @p length outcomes to @p width
     * bits and return its id for folded(). The register starts from
     * the current history; consumers register in their constructors.
     */
    unsigned
    track(unsigned length, unsigned width)
    {
        fatalIf(length == 0 || length > kMaxBits,
                "FoldedHistory::track length must be in 1..kMaxBits");
        fatalIf(width == 0 || width > 32,
                "FoldedHistory::track width must be in 1..32");
        fatalIf(count_ == kMaxTracked,
                "FoldedHistory::track exceeds kMaxTracked folds");
        Tracked &t = tracks_[count_];
        t.length = static_cast<uint8_t>(length);
        t.width = static_cast<uint8_t>(width);
        t.outWord = static_cast<uint8_t>((length - 1) / 64);
        t.outShift = static_cast<uint8_t>((length - 1) % 64);
        t.outPoint = static_cast<uint8_t>(length % width);
        t.mask = static_cast<uint32_t>((uint64_t(1) << width) - 1);
        regs_[count_] = static_cast<uint32_t>(fold(length, width));
        return count_++;
    }

    /** The current value of tracked fold @p id: fold(length, width). */
    uint64_t folded(unsigned id) const noexcept { return regs_[id]; }

    /** Shift in a new outcome (true = taken), newest in bit 0. */
    void
    push(bool taken) noexcept
    {
        const uint64_t in = taken ? 1 : 0;
        for (unsigned id = 0; id < count_; ++id) {
            const Tracked &t = tracks_[id];
            // The outcome at age length-1 leaves the window: read it
            // before the words shift.
            uint64_t out = (words_[t.outWord] >> t.outShift) & 1;
            uint64_t v = (uint64_t(regs_[id]) << 1) | in;
            v ^= out << t.outPoint;
            v ^= v >> t.width;
            regs_[id] = static_cast<uint32_t>(v) & t.mask;
        }
        words_[1] = (words_[1] << 1) | (words_[0] >> 63);
        words_[0] = (words_[0] << 1) | in;
    }

    /** The newest @p bits outcomes (bits <= 64), newest in bit 0. */
    uint64_t
    recent(unsigned bits) const
    {
        panicIf(bits > 64, "FoldedHistory::recent supports at most 64 bits");
        if (bits == 0)
            return 0;
        uint64_t mask = bits >= 64 ? ~uint64_t(0)
                                   : ((uint64_t(1) << bits) - 1);
        return words_[0] & mask;
    }

    /**
     * Fold the newest @p length outcomes to @p width bits: XOR of
     * consecutive width-bit chunks, newest outcome in bit 0 of the first
     * chunk; the final partial chunk is zero-padded.
     */
    uint64_t
    fold(unsigned length, unsigned width) const noexcept
    {
        panicIf(length > kMaxBits,
                "FoldedHistory::fold length exceeds kMaxBits");
        panicIf(width == 0 || width > 32,
                "FoldedHistory::fold width must be in 1..32");
        uint64_t out = 0;
        for (unsigned lo = 0; lo < length; lo += width) {
            unsigned take = length - lo < width ? length - lo : width;
            out ^= window(lo, take);
        }
        return out;
    }

  private:
    /** Geometry of one tracked fold, precomputed for push(). */
    struct Tracked
    {
        uint8_t length = 0;   //!< history window L
        uint8_t width = 0;    //!< fold width C
        uint8_t outWord = 0;  //!< word holding the outcome at age L-1
        uint8_t outShift = 0; //!< its bit within that word
        uint8_t outPoint = 0; //!< L % C: where the leaving outcome sits
        uint32_t mask = 0;    //!< low C bits
    };

    /** Bits [lo, lo + take) of the packed history, oldest ones zero. */
    uint64_t
    window(unsigned lo, unsigned take) const noexcept
    {
        uint64_t chunk;
        if (lo >= 64) {
            chunk = words_[1] >> (lo - 64);
        } else if (lo == 0) {
            chunk = words_[0];
        } else {
            chunk = (words_[0] >> lo) | (words_[1] << (64 - lo));
        }
        uint64_t mask = take >= 64 ? ~uint64_t(0)
                                   : ((uint64_t(1) << take) - 1);
        return chunk & mask;
    }

    uint64_t words_[2] = {0, 0};
    Tracked tracks_[kMaxTracked] = {};
    uint32_t regs_[kMaxTracked] = {}; //!< tracked folds, kept by push()
    unsigned count_ = 0;              //!< folds registered so far
};

} // namespace copra::predictor
