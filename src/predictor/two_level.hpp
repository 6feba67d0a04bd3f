/**
 * @file
 * The configurable two-level adaptive branch predictor engine
 * (Yeh & Patt, 1991/1992; McFarling's gshare variation, 1993).
 *
 * One engine covers the whole naming family: the first-level history can
 * be global (GA*) or per-address (PA*), and the second-level pattern
 * history table can be indexed by history alone (xAg), by history
 * concatenated with address bits (xAs — per-address-set PHTs), or by
 * history XORed with the address (gshare).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "predictor/predictor.hpp"
#include "predictor/state.hpp"
#include "util/sat_counter.hpp"
#include "util/shift_register.hpp"

namespace copra::predictor {

/** Configuration of a two-level predictor. */
struct TwoLevelConfig
{
    /** Where the first-level history lives. */
    enum class Scope : uint8_t
    {
        Global,     //!< one history register shared by all branches
        PerAddress, //!< a table of history registers indexed by pc
    };

    /** How the second-level PHT is indexed. */
    enum class Index : uint8_t
    {
        HistoryOnly, //!< PHT[hist]                 (GAg / PAg)
        Concat,      //!< PHT[pc_bits : hist]       (GAs / PAs)
        Xor,         //!< PHT[hist ^ pc_bits]       (gshare)
    };

    Scope scope = Scope::Global;
    Index index = Index::Xor;

    /** First-level history length in bits (1..32). */
    unsigned historyBits = 16;

    /** log2 of the branch history table size (PerAddress scope only). */
    unsigned bhtBits = 10;

    /**
     * Address bits prepended to the history under Index::Concat; these
     * select among 2^pcSelectBits logical PHTs.
     */
    unsigned pcSelectBits = 4;

    /** log2 of the total number of second-level counters. */
    unsigned phtBits = 16;

    /**
     * Width of the second-level saturating counters in bits (Smith's
     * classic choice is 2; 1 disables hysteresis, 3+ adds inertia).
     * Counters initialize to the weakly-not-taken state.
     */
    unsigned counterBits = 2;

    std::string label = "two-level";

    /** gshare with an @p h bit history and a 2^h entry PHT. */
    static TwoLevelConfig gshare(unsigned h = 16);

    /** GAg: global history indexing a single PHT. */
    static TwoLevelConfig gag(unsigned h = 16);

    /** GAs: global history with per-address-set PHTs. */
    static TwoLevelConfig gas(unsigned h = 12, unsigned pc_select = 4);

    /**
     * PAs: per-address histories (2^bht_bits registers) with
     * per-address-set PHTs (paper §2.1).
     */
    static TwoLevelConfig pas(unsigned h = 12, unsigned bht_bits = 12,
                              unsigned pc_select = 4);

    /** PAg: per-address histories indexing a single PHT. */
    static TwoLevelConfig pag(unsigned h = 12, unsigned bht_bits = 12);
};

/** A two-level adaptive predictor realized from a TwoLevelConfig. */
class TwoLevel : public Predictor
{
  public:
    explicit TwoLevel(const TwoLevelConfig &config);

    bool predict(const trace::BranchRecord &br) noexcept override;
    void update(const trace::BranchRecord &br, bool taken) noexcept override;

    /**
     * Column batch path (same results as predict + update): one fused
     * loop per scope and index flavour computes each branch's PHT
     * index inline, trains its counter and shifts the history.
     */
    uint64_t
    predictUpdateSoa(const SoaBatch &batch, uint8_t *correct_out) noexcept override;

    void reset() override;
    std::string name() const override;

    const TwoLevelConfig &config() const { return config_; }

    /** PHT index used for @p pc under the current history (for tests). */
    size_t phtIndex(uint64_t pc) const noexcept;

    // State contract (DESIGN.md §14): historyBits per first-level
    // register plus counterBits per second-level counter.
    uint64_t
    stateBits() const override
    {
        return uint64_t(config_.historyBits) * histories_.size() +
            uint64_t(config_.counterBits) * pht_.size();
    }

    COPRA_CONFIG_FIELDS(config_, historyMask_, phtMask_, counterMax_,
                        counterInit_);
    COPRA_STATE_FIELDS(histories_, pht_);

  private:
    uint64_t &historyFor(uint64_t pc) noexcept;
    uint64_t historyFor(uint64_t pc) const noexcept;

    // The three PHT index flavours over a masked history and pc >> 2;
    // phtIndex() and the batch loops share them.
    size_t
    historyIndex(uint64_t hist) const noexcept
    {
        return hist & phtMask_;
    }

    size_t
    concatIndex(uint64_t pc_bits, uint64_t hist) const noexcept
    {
        uint64_t select =
            pc_bits & ((uint64_t(1) << config_.pcSelectBits) - 1);
        return ((select << config_.historyBits) | hist) & phtMask_;
    }

    size_t
    xorIndex(uint64_t pc_bits, uint64_t hist) const noexcept
    {
        return (hist ^ pc_bits) & phtMask_;
    }

    /** Predict from @p counter, then train it toward @p taken; returns
     * whether the prediction was correct. */
    bool trainCounter(uint8_t &counter, bool taken) const noexcept;

    uint64_t runGlobalSoa(const SoaBatch &batch, uint8_t *correct_out) noexcept;
    uint64_t runPerAddressSoa(const SoaBatch &batch, uint8_t *correct_out) noexcept;

    TwoLevelConfig config_;
    uint64_t historyMask_;
    size_t phtMask_;
    uint8_t counterMax_;
    uint8_t counterInit_;
    std::vector<uint64_t> histories_; // size 1 (global) or 2^bhtBits
    std::vector<uint8_t> pht_;        // counterBits-wide counters
};

} // namespace copra::predictor

