/**
 * @file
 * A finite set-associative branch target buffer substrate.
 *
 * The paper's loop and block-pattern class predictors keep per-branch
 * counts "in a perfect BTB to prevent interference from affecting our
 * classification" (§4.1.1). This table makes the perfection assumption
 * ablatable: the same predictors can run over a finite, set-associative,
 * LRU-replaced BTB, exposing the capacity and conflict effects a real
 * implementation would see (bench/ablation_btb).
 */

#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "util/logging.hpp"

namespace copra::predictor {

namespace state {
template <typename T>
struct Codec;
} // namespace state

/** Geometry of a finite BTB. setBits = 0 and ways = 0 mean "perfect". */
struct BtbConfig
{
    unsigned setBits = 0; //!< log2 number of sets (0 with ways=0: perfect)
    unsigned ways = 0;    //!< associativity

    /** A perfect (unbounded, interference-free) table. */
    static BtbConfig perfect() { return {0, 0}; }

    /** A finite table with 2^set_bits sets of @p ways entries. */
    static BtbConfig
    finite(unsigned set_bits, unsigned ways)
    {
        return {set_bits, ways};
    }

    bool isPerfect() const noexcept { return ways == 0; }

    /** Total entries (0 = unbounded). */
    size_t
    entries() const
    {
        return isPerfect() ? 0 : (size_t(1) << setBits) * ways;
    }

    std::string describe() const;
};

/**
 * Set-associative, LRU-replaced table of per-branch state, tagged by
 * full pc. With a perfect config it degrades to an unbounded hash map.
 *
 * @tparam State Per-branch payload (default-constructed on allocation).
 */
template <typename State>
class BtbTable
{
  public:
    explicit BtbTable(const BtbConfig &config = BtbConfig::perfect())
        : config_(config)
    {
        if (!config_.isPerfect()) {
            fatalIf(config_.setBits > 24, "BTB set bits must be <= 24");
            fatalIf(config_.ways > 64, "BTB associativity must be <= 64");
            sets_.resize(size_t(1) << config_.setBits);
            for (auto &set : sets_)
                set.reserve(config_.ways);
        }
    }

    const BtbConfig &config() const { return config_; }

    /** Entries currently allocated. */
    size_t
    size() const
    {
        if (config_.isPerfect())
            return perfect_.size();
        size_t n = 0;
        for (const auto &set : sets_)
            n += set.size();
        return n;
    }

    /** Misses that caused an eviction (0 for perfect tables). */
    uint64_t evictions() const { return evictions_; }

    /**
     * Look up @p pc without modifying replacement state.
     * @return Pointer to the entry's state, or nullptr on miss.
     */
    const State *
    find(uint64_t pc) const
    {
        if (config_.isPerfect()) {
            auto it = perfect_.find(pc);
            return it == perfect_.end() ? nullptr : &it->second;
        }
        const auto &set = sets_[setOf(pc)];
        for (const auto &entry : set)
            if (entry.pc == pc)
                return &entry.state;
        return nullptr;
    }

    /**
     * Look up @p pc, allocating (and possibly evicting the LRU entry of
     * the set) on a miss. Freshly allocated entries hold a
     * default-constructed State. Updates LRU state.
     */
    State &
    access(uint64_t pc) noexcept
    {
        if (config_.isPerfect())
            return perfect_[pc];

        auto &set = sets_[setOf(pc)];
        ++tick_;
        for (auto &entry : set) {
            if (entry.pc == pc) {
                entry.lastUse = tick_;
                return entry.state;
            }
        }
        if (set.size() < config_.ways) {
            // First-touch fill of a BTB way (perfect BTBs grow one way
            // per static branch); growth stops once the working set is
            // resident, so the steady state measured by --hot-gates
            // allocates nothing.
            // copra-lint: allow(hot-alloc) -- first-touch fill, stops in steady state
            set.push_back({pc, tick_, State{}});
            return set.back().state;
        }
        // Evict the least recently used way.
        size_t victim = 0;
        for (size_t i = 1; i < set.size(); ++i)
            if (set[i].lastUse < set[victim].lastUse)
                victim = i;
        ++evictions_;
        set[victim] = {pc, tick_, State{}};
        return set[victim].state;
    }

    /**
     * Architectural bits at the current occupancy: a full-pc tag plus
     * @p payload_bits per live entry, and an LRU timestamp per entry
     * for finite tables. Perfect tables grow without bound, so this is
     * a measurement of the run, not of a hardware budget.
     */
    uint64_t
    stateBits(uint64_t payload_bits) const
    {
        uint64_t per = 64 + payload_bits + (config_.isPerfect() ? 0 : 64);
        return uint64_t(size()) * per;
    }

    /** Drop all entries and statistics. */
    void
    clear()
    {
        perfect_.clear();
        for (auto &set : sets_)
            set.clear();
        evictions_ = 0;
        tick_ = 0;
    }

  private:
    /** The snapshot (predictor/state.hpp) reads the table directly. */
    friend struct state::Codec<BtbTable>;

    struct Entry
    {
        uint64_t pc;
        uint64_t lastUse;
        State state;

        static auto
        stateFields(auto &e)
        {
            return std::tie(e.pc, e.lastUse, e.state);
        }
    };

    size_t
    setOf(uint64_t pc) const noexcept
    {
        return (pc >> 2) & ((size_t(1) << config_.setBits) - 1);
    }

    BtbConfig config_;
    std::unordered_map<uint64_t, State> perfect_;
    std::vector<std::vector<Entry>> sets_;
    uint64_t evictions_ = 0;
    uint64_t tick_ = 0;
};

} // namespace copra::predictor

