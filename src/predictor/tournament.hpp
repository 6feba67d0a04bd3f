/**
 * @file
 * Tournament predictor: a McFarling-style chooser over a global gshare
 * and a local PAs component, augmented with the front-end structures a
 * real fetch engine needs — a finite BTB (predictor/btb.hpp) and a
 * return-address stack.
 *
 * The direction machinery is the paper's hybrid idea taken to the Alpha
 * 21264 shape: per-pc-indexed 2-bit chooser counters arbitrate between
 * the components and train only when exactly one was correct. The BTB
 * miss model captures the fetch reality the paper abstracts away: a
 * conditional branch predicted taken whose target is absent from the
 * BTB cannot be fetched as taken, so the effective prediction degrades
 * to not-taken. Calls push their return address onto a bounded stack;
 * returns pop it, and the hit rate is reported (direction prediction is
 * unaffected — returns are unconditional). Semantics are documented in
 * DESIGN.md §13.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "predictor/btb.hpp"
#include "predictor/predictor.hpp"
#include "predictor/state.hpp"
#include "predictor/two_level.hpp"
#include "util/sat_counter.hpp"

namespace copra::predictor {

/** Geometry of a tournament predictor and its front-end structures. */
struct TournamentConfig
{
    unsigned globalHistory = 12; //!< gshare component history bits
    unsigned localHistory = 10;  //!< PAs component history bits
    unsigned localBhtBits = 10;  //!< PAs branch-history-table log2 size
    unsigned localSelectBits = 4; //!< PAs pc-select bits
    unsigned chooserBits = 12;   //!< log2 chooser counters

    BtbConfig btb = BtbConfig::finite(9, 4); //!< target buffer geometry
    unsigned returnStackDepth = 16; //!< RAS entries (0 disables)

    std::string label = "tournament";
};

/** Observable internals for tests, telemetry, and the analysis layer. */
struct TournamentStats
{
    uint64_t choseGlobal = 0;   //!< predictions served by gshare
    uint64_t choseLocal = 0;    //!< predictions served by PAs
    uint64_t chooserTrains = 0; //!< updates where exactly one was right
    uint64_t btbMissSquashes = 0; //!< taken predictions forced not-taken
    uint64_t returnsSeen = 0;   //!< Return records observed
    uint64_t returnHits = 0;    //!< returns whose popped address matched
    uint64_t returnUnderflows = 0; //!< returns that found an empty stack
};

/** A tournament predictor realized from a TournamentConfig. */
class Tournament : public Predictor
{
  public:
    explicit Tournament(const TournamentConfig &config);
    Tournament(Tournament &&) = default;
    ~Tournament() override;

    bool predict(const trace::BranchRecord &br) noexcept override;
    void update(const trace::BranchRecord &br, bool taken) noexcept override;

    /** Tracks calls/returns for the RAS and jump targets for the BTB. */
    void observe(const trace::BranchRecord &br) noexcept override;

    void reset() override;
    std::string name() const override;

    const TournamentConfig &config() const { return config_; }
    const TournamentStats &stats() const { return stats_; }

    /** BTB evictions so far (capacity/conflict pressure, for tests). */
    uint64_t btbEvictions() const { return btb_.evictions(); }

    // State contract (DESIGN.md §14): both direction components, the
    // chooser counters, the BTB (64-bit target payloads), and the
    // return-address stack with its cursor registers.
    uint64_t
    stateBits() const override
    {
        return global_.stateBits() + local_.stateBits() +
            uint64_t(2) * chooser_.size() + btb_.stateBits(64) +
            uint64_t(64) * returnStack_.size();
    }

    COPRA_CONFIG_FIELDS(config_);
    COPRA_STATE_FIELDS(global_, local_, chooser_, btb_, returnStack_,
                       rasTop_, rasSize_);
    COPRA_TRANSIENT_FIELDS(stats_);

  protected:
    /**
     * Is @p pc present in the BTB? Virtual as the seam for the
     * differential harness's miss-model planted bug
     * (check/differential.cc); real subclasses are not expected.
     */
    virtual bool btbHit(uint64_t pc) const noexcept;

  private:
    size_t chooserIndex(uint64_t pc) const noexcept;

    TournamentConfig config_;
    TwoLevel global_; //!< gshare component
    TwoLevel local_;  //!< PAs component
    std::vector<Counter2> chooser_; //!< >= 2 selects global
    BtbTable<uint64_t> btb_; //!< pc -> last observed target
    std::vector<uint64_t> returnStack_; //!< bounded circular stack
    size_t rasTop_ = 0;  //!< next push slot
    size_t rasSize_ = 0; //!< live entries (<= depth)
    TournamentStats stats_;
};

} // namespace copra::predictor
