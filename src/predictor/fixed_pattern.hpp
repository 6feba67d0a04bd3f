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
#include <cstddef>
#include <cstdint>
#include <vector>

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

};

/**
 * All 32 fixed-length-pattern predictors evaluated simultaneously, with
 * per-branch per-k correct counts, in a table indexed by the trace's
 * dense static id (trace::SoABlocks::staticIndex()). Not a Predictor
 * (it makes 32 predictions per branch); used by the per-address
 * classification engine, which needs max-over-k accuracy per branch.
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

    /** @param static_count Number of static ids observe() may carry. */
    explicit FixedPatternBank(size_t static_count) : table_(static_count) {}

    /** Observe one execution of the branch with static id @p id. */
    void observe(uint32_t id, bool taken) noexcept;

    /** Best correct-count over k for @p id (0 if unseen). */
    uint64_t bestCorrect(uint32_t id) const;

    /** The smallest k achieving bestCorrect for @p id (1 if unseen). */
    unsigned bestK(uint32_t id) const;

    /** Per-branch counts, indexed by static id. */
    const std::vector<BranchCounts> &table() const { return table_; }

  private:
    std::vector<BranchCounts> table_;
};

} // namespace copra::predictor

