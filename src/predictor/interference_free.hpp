/**
 * @file
 * Interference-free two-level predictors (paper §2.2; Talcott et al. 1995,
 * Young et al. 1995): conceptually one private PHT per static branch, so
 * no two branches ever share a counter. Prohibitively large in hardware
 * but the right instrument for separating interference effects from
 * training effects, which is exactly how the paper uses them.
 */

#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>

#include "predictor/predictor.hpp"
#include "predictor/state.hpp"
#include "util/sat_counter.hpp"
#include "util/shift_register.hpp"

namespace copra::predictor {

/**
 * Interference-free gshare: a global history register, with a private
 * pattern history table per static branch (realized as a hash map keyed
 * by the exact (pc, history) pair). Identical inputs to gshare, zero
 * aliasing.
 */
class IfGshare : public Predictor
{
  public:
    /** @param history_bits Global history length (paper uses 16). */
    explicit IfGshare(unsigned history_bits = 16);

    bool step(const trace::BranchRecord &br, bool taken) noexcept override;
    uint64_t
    predictUpdateSoa(const SoaBatch &batch, uint8_t *out) noexcept override
    {
        return stepBatch(*this, batch, out);
    }
    std::string name() const override;

    /** Number of distinct (pc, history) counters allocated so far. */
    size_t countersAllocated() const { return pht_.size(); }

    COPRA_CONFIG_FIELDS(historyBits_);
    COPRA_STATE_FIELDS(history_, pht_);

  private:
    using Key = std::pair<uint64_t, uint64_t>; //!< (pc, history)

    struct KeyHash
    {
        size_t
        operator()(const Key &key) const noexcept
        {
            return key.first * 0x9e3779b97f4a7c15ull ^ key.second;
        }
    };

    Key keyOf(uint64_t pc) const noexcept { return {pc, history_.value()}; }

    unsigned historyBits_;
    HistoryRegister history_;
    std::unordered_map<Key, Counter2, KeyHash> pht_;
};

/**
 * One branch's interference-free PAs history register: the transition
 * IfPas and the per-address classifier share.
 */
struct PasHistory
{
    uint64_t bits = 0; //!< newest outcome in bit 0

    /**
     * Counter key of the current pattern in private table @p table.
     * Tables are numbered from 1, so no key is 0; histories are at
     * most 32 bits, so no two (table, pattern) pairs share a key.
     */
    uint64_t
    key(uint32_t table) const noexcept
    {
        return (uint64_t(table) << 32) | bits;
    }

    /** Shift in @p taken, keeping the bits of @p mask. */
    void
    push(bool taken, uint64_t mask) noexcept
    {
        bits = ((bits << 1) | (taken ? 1 : 0)) & mask;
    }
};

/**
 * Interference-free PAs: a private history register per static branch
 * (a "very large BTB", paper §4.1.3) and a private PHT per branch.
 * Each branch gets a table number on its first step, and its counters
 * are keyed by the exact (table, history) pair, so no two branches
 * ever share one, whatever their pcs.
 */
class IfPas : public Predictor
{
  public:
    /** @param history_bits Per-branch history length. */
    explicit IfPas(unsigned history_bits = 12);

    bool step(const trace::BranchRecord &br, bool taken) noexcept override;
    uint64_t
    predictUpdateSoa(const SoaBatch &batch, uint8_t *out) noexcept override
    {
        return stepBatch(*this, batch, out);
    }
    std::string name() const override;

    /** Number of static branches tracked so far. */
    size_t branchesTracked() const { return histories_.size(); }

    COPRA_CONFIG_FIELDS(historyBits_, historyMask_);
    COPRA_STATE_FIELDS(histories_, pht_);

  private:
    /** One tracked branch: its history and its private PHT's number. */
    struct BranchHistory
    {
        PasHistory history;
        uint32_t table = 0; //!< 1 + first-step order; 0 = unassigned
    };

    unsigned historyBits_;
    uint64_t historyMask_;
    std::unordered_map<uint64_t, BranchHistory> histories_;
    std::unordered_map<uint64_t, Counter2> pht_;
};

} // namespace copra::predictor

