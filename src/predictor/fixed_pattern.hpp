/**
 * @file
 * Fixed-length-pattern predictors (paper §4.1.2): a branch repeating any
 * pattern of length k has each outcome equal to its outcome k executions
 * ago, so the class predictor simply replays the outcome from k ago.
 *
 * The paper simulates 32 variants (k = 1..32) and scores each branch by
 * the best of them; FixedPatternBank runs all 32 in one pass for the
 * classification engine.
 */

#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>

namespace copra::predictor {

/** Ring buffer of the last 32 outcomes of one branch. */
struct OutcomeRing
{
    uint32_t bits = 0;  //!< newest outcome in bit 0
    uint32_t count = 0; //!< outcomes recorded (saturates at 2^32-1)

    /** Record a new outcome. */
    void
    push(bool taken) noexcept
    {
        bits = (bits << 1) | (taken ? 1u : 0u);
        if (count < UINT32_MAX)
            ++count;
    }

    /**
     * Outcome @p k executions ago (k = 1..32). Returns @p cold_default
     * when fewer than k outcomes have been recorded.
     */
    bool
    kAgo(unsigned k, bool cold_default = true) const noexcept
    {
        if (count < k)
            return cold_default;
        return (bits >> (k - 1)) & 1u;
    }
};

/**
 * All 32 fixed-length-pattern predictors evaluated simultaneously, with
 * per-branch per-k correct counts. Not a Predictor (it makes 32
 * predictions per branch); used by the per-address classification engine,
 * which needs max-over-k accuracy per branch.
 */
class FixedPatternBank
{
  public:
    static constexpr unsigned kMaxK = 32;

    /** Per-branch accounting: correct predictions for each k. */
    struct BranchCounts
    {
        OutcomeRing ring;
        uint64_t execs = 0;
        std::array<uint64_t, kMaxK> correct{};
    };

    /** Observe one execution of the branch at @p pc. */
    void observe(uint64_t pc, bool taken) noexcept;

    /** Best correct-count over k for @p pc (0 if unseen). */
    uint64_t bestCorrect(uint64_t pc) const;

    /** The k achieving bestCorrect for @p pc (1 if unseen). */
    unsigned bestK(uint64_t pc) const;

    /** Per-branch table (for iteration by the classifier). */
    const std::unordered_map<uint64_t, BranchCounts> &table() const
    {
        return table_;
    }

  private:
    std::unordered_map<uint64_t, BranchCounts> table_;
};

} // namespace copra::predictor

