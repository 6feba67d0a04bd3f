/**
 * @file
 * Per-branch outcome streams: a trace's conditional outcomes regrouped
 * by static branch. Every per-address pass (the PA classifier's class
 * predictors, local-history entropy) is a function of one branch's
 * own outcome sequence; over this view it walks that sequence
 * contiguously, keeping its state in locals, instead of walking the
 * trace in record order and gathering per-branch state by static id.
 *
 * The view is derived, never stored: one counting pass and one
 * scatter over the (site, taken) columns, 1 bit per conditional plus
 * per-id offsets (~250 KB for a 2M-branch trace).
 */

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/trace_soa.hpp"

namespace copra::trace {

/** Each static branch's conditional outcomes as a packed bit stream. */
class BranchStreams
{
  public:
    /**
     * One branch's outcomes in execution order: execution j is bit
     * j % 64 of words[j / 64]. Bits at and past size are zero, and the
     * word after the last one is always readable, so a 64-bit window
     * may start at any bit below size.
     */
    struct Stream
    {
        const uint64_t *words = nullptr;
        uint64_t size = 0; //!< conditional executions of the branch

        /** Outcome of execution @p j. */
        bool
        operator[](uint64_t j) const noexcept
        {
            return (words[j >> 6] >> (j & 63)) & 1;
        }

        /** Taken executions: the popcount of the stream's words. */
        uint64_t
        takenCount() const noexcept
        {
            uint64_t taken = 0;
            for (uint64_t w = 0; w < (size + 63) / 64; ++w)
                taken += std::popcount(words[w]);
            return taken;
        }
    };

    /** Transpose the conditional records of @p soa by static id. */
    explicit BranchStreams(const SoABlocks &soa);

    /** Number of static ids (SoABlocks::staticCount()). */
    size_t size() const noexcept { return execs_.size(); }

    /** Stream of static id @p id (empty if it ran no conditional). */
    Stream
    stream(uint32_t id) const noexcept
    {
        return {words_.data() + wordBegin_[id], execs_[id]};
    }

  private:
    std::vector<uint64_t> execs_;     //!< per id: stream length in bits
    std::vector<size_t> wordBegin_;   //!< per id: first word; size() + 1
    std::vector<uint64_t> words_;     //!< every stream, word-aligned
};

} // namespace copra::trace
