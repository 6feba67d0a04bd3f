/**
 * @file
 * TAGE-lite: a TAgged GEometric-history-length predictor (Seznec &
 * Michaud, 2006), reduced to the parts the paper's "why" analysis needs.
 *
 * A bimodal base table backs N tagged tables whose history lengths grow
 * geometrically. Each tagged entry carries a partial tag, a prediction
 * counter, and a useful counter; the longest-history matching table
 * provides the prediction, entries are allocated on mispredicts into a
 * longer-history table with a free (useful == 0) slot, and the useful
 * counters age periodically so stale entries become reclaimable.
 *
 * Deliberate simplifications versus full TAGE (documented in DESIGN.md
 * §13): no alternate-prediction override of weak entries (USE_ALT_ON_NA),
 * deterministic first-free-slot allocation instead of randomized
 * candidate choice, and one shared history whose folds are tracked
 * registers of a single FoldedHistory (predictor/history_fold.hpp)
 * rather than a separate circular shift register per table.
 */

#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "predictor/history_fold.hpp"
#include "predictor/predictor.hpp"
#include "predictor/state.hpp"

namespace copra::predictor {

/** Geometry and policy of a TAGE-lite predictor. */
struct TageConfig
{
    unsigned baseBits = 12;   //!< log2 entries of the bimodal base table
    unsigned tableBits = 10;  //!< log2 entries per tagged table
    unsigned tagBits = 9;     //!< partial tag width (1..16)
    unsigned counterBits = 3; //!< tagged-table prediction counter width
    unsigned usefulBits = 2;  //!< useful counter width
    unsigned numTables = 4;   //!< tagged tables (1..8)
    unsigned minHistory = 5;  //!< history length of the first tagged table
    unsigned maxHistory = 80; //!< history length of the last tagged table

    /** Updates between useful-counter halvings (0 disables aging). */
    uint64_t agingPeriod = 256 * 1024;

    std::string label = "tage";

    /** The history length of tagged table @p t (geometric series). */
    unsigned historyLength(unsigned t) const;
};

/** Observable internals for tests, telemetry, and the analysis layer. */
struct TageStats
{
    uint64_t allocations = 0;  //!< tagged entries (re)allocated
    uint64_t allocFailures = 0; //!< mispredicts that found no free slot
    uint64_t agingEvents = 0;  //!< periodic useful-counter halvings
    uint64_t providerTagged = 0; //!< predictions served by a tagged table
    uint64_t providerBase = 0;   //!< predictions served by the base table
};

/** A TAGE-lite predictor realized from a TageConfig. */
class Tage : public Predictor
{
  public:
    explicit Tage(const TageConfig &config);
    ~Tage() override;

    bool predict(const trace::BranchRecord &br) noexcept override;
    void update(const trace::BranchRecord &br, bool taken) noexcept override;
    void reset() override;
    std::string name() const override;

    const TageConfig &config() const { return config_; }
    const TageStats &stats() const { return stats_; }

    /** Largest useful-counter value currently stored (tests). */
    unsigned maxUseful() const;

    /** Sum of all useful counters (tests: aging must shrink it). */
    uint64_t usefulSum() const;

    // State contract (DESIGN.md §14): 2 bits per base counter, then
    // tag + prediction + useful bits per tagged entry, the folded
    // history, and the aging clock.
    uint64_t
    stateBits() const override
    {
        uint64_t bits = uint64_t(2) * base_.size();
        const uint64_t per_entry = uint64_t(config_.tagBits) +
            config_.counterBits + config_.usefulBits;
        for (const auto &table : tables_)
            bits += per_entry * table.size();
        return bits;
    }

    COPRA_CONFIG_FIELDS(config_, folds_);
    COPRA_STATE_FIELDS(base_, tables_, history_, updates_);
    COPRA_TRANSIENT_FIELDS(stats_);

  protected:
    /** One tagged-table entry. */
    struct Entry
    {
        uint16_t tag = 0;
        uint8_t ctr = 0;    //!< prediction counter; taken iff MSB set
        uint8_t useful = 0; //!< replacement protection

        /** Snapshot members, in order (predictor/state.hpp). */
        static auto
        stateFields(auto &e)
        {
            return std::tie(e.tag, e.ctr, e.useful);
        }
    };

    /**
     * Install a fresh entry for @p tag at the chosen slot, initialized
     * weakly toward the observed outcome. Virtual as the seam for the
     * differential harness's allocation-path planted bug
     * (check/differential.cc); real subclasses are not expected.
     */
    virtual void allocateEntry(Entry &slot, uint16_t tag, bool taken) noexcept;

  private:
    /** Provider/alternate selection for one pc under current history. */
    struct Lookup
    {
        int provider = -1;   //!< tagged table index, -1 = base
        int alt = -1;        //!< next-longest match below provider
        bool prediction = false;
        bool altPrediction = false;
    };

    /** One tagged table's FoldedHistory ids, all over its length. */
    struct Folds
    {
        unsigned index = 0; //!< fold to tableBits
        unsigned tag = 0;   //!< fold to tagBits
        unsigned tag2 = 0;  //!< fold to tagBits - 1 (when tagBits > 1)
    };

    Lookup lookup(uint64_t pc) const noexcept;
    size_t indexOf(unsigned table, uint64_t pc) const noexcept;
    uint16_t tagOf(unsigned table, uint64_t pc) const noexcept;
    bool counterTaken(uint8_t ctr, unsigned bits) const noexcept;
    static void bumpCounter(uint8_t &ctr, unsigned bits, bool up) noexcept;

    TageConfig config_;
    std::vector<uint8_t> base_;              //!< bimodal counters (2-bit)
    std::vector<std::vector<Entry>> tables_; //!< tagged tables
    std::vector<Folds> folds_;               //!< per-table fold ids
    FoldedHistory history_;
    uint64_t updates_ = 0; //!< branches trained since reset (drives aging)
    TageStats stats_;
};

} // namespace copra::predictor
