/**
 * @file
 * Reference branch predictor models for differential verification.
 *
 * Every model here is a second, independent implementation of a
 * predictor that already exists under src/predictor/, written for
 * *obvious correctness* rather than speed: tables are std::map (sparse,
 * no masking tricks beyond what the semantics demand), counters are
 * plain ints clamped explicitly, and there are no batch overrides.
 * Every model predicts and then trains as two calls (RefModel) where
 * the optimized step() fuses both into one lookup, so an optimized
 * prediction that peeks at the outcome diverges. The differential
 * runner (check/differential.hpp) replays the same trace through the
 * optimized predictor and its reference and diffs the per-branch
 * prediction streams, so any divergence in the optimized scalar or
 * SoA batch paths is caught mechanically.
 *
 * The semantics replicated here are the *documented* semantics of the
 * optimized models (weakly-not-taken counter init, pc >> 2 word
 * indexing, history masks, cold defaults). Keep the two in sync on
 * purpose: when a predictor's contract changes, its reference must be
 * changed in the same commit, which is exactly the review speed bump
 * this subsystem exists to create.
 */

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "predictor/perceptron.hpp"
#include "predictor/predictor.hpp"
#include "predictor/tage.hpp"
#include "predictor/tournament.hpp"
#include "predictor/two_level.hpp"

namespace copra::check {

/**
 * The reference history fold: XOR of consecutive @p width bit chunks of
 * the newest @p length outcomes, newest outcome in bit 0 of the first
 * chunk (the one-line spec predictor/history_fold.hpp implements with
 * packed words). @p history holds outcomes newest-last.
 */
uint64_t refFold(const std::vector<bool> &history, unsigned length,
                 unsigned width);

/**
 * Base of every reference model: step() calls prediction(), which
 * never sees the outcome, and only then train(). Several planted bugs
 * (check/differential.cc) derive from a reference and break one call.
 */
class RefModel : public predictor::Predictor
{
  public:
    bool
    step(const trace::BranchRecord &br, bool taken) noexcept final
    {
        bool predicted = prediction(br);
        train(br, taken);
        return predicted;
    }

  protected:
    /** The direction predicted for @p br (its pc and target only). */
    virtual bool prediction(const trace::BranchRecord &br) const = 0;

    /** Train on @p br's outcome @p taken. */
    virtual void train(const trace::BranchRecord &br, bool taken) = 0;
};

/**
 * Reference two-level adaptive predictor covering the whole
 * gshare / GAg / GAs / PAs / PAg family via the same TwoLevelConfig the
 * optimized engine consumes (the config is shared *data*; none of the
 * optimized logic is reused).
 */
class RefTwoLevel : public RefModel
{
  public:
    explicit RefTwoLevel(const predictor::TwoLevelConfig &config);

    std::string name() const override;

  protected:
    friend class RefTournament; // consults its components' predictions

    bool prediction(const trace::BranchRecord &br) const override;
    void train(const trace::BranchRecord &br, bool taken) override;

  private:
    uint64_t historyOf(uint64_t pc) const;
    uint64_t phtIndexOf(uint64_t pc) const;
    int counterOf(uint64_t index) const;

    predictor::TwoLevelConfig config_;
    int counterMax_;
    int counterInit_;
    // Sparse tables: absent entries hold the documented initial state
    // (history 0, counter weakly-not-taken).
    std::map<uint64_t, uint64_t> histories_; // bht row -> history bits
    std::map<uint64_t, int> counters_;       // pht index -> counter
};

/** Reference bimodal predictor: per-index 2-bit counter, init weakly-NT. */
class RefBimodal : public RefModel
{
  public:
    explicit RefBimodal(unsigned table_bits = 12);

    std::string name() const override;

  private:
    bool prediction(const trace::BranchRecord &br) const override;
    void train(const trace::BranchRecord &br, bool taken) override;

    unsigned tableBits_;
    std::map<uint64_t, int> counters_; // table index -> counter 0..3
};

/**
 * Reference loop predictor (paper §4.1.1) over a perfect per-pc table:
 * predict the learned body direction for the learned trip count, then
 * one opposite prediction; cold branches predict taken.
 */
class RefLoop : public RefModel
{
  public:
    std::string name() const override { return "ref-loop"; }

  protected:
    bool prediction(const trace::BranchRecord &br) const override;
    void train(const trace::BranchRecord &br, bool taken) override;

    struct State
    {
        bool dir = true;   // repeated ("body") direction
        int run = 0;       // current same-direction run length
        int trip = 255;    // learned trip count (previous run of dir)
    };
    std::map<uint64_t, State> table_;
};

/**
 * Reference block-pattern predictor (paper §4.1.2): continue the current
 * same-direction block until it reaches the length of the last completed
 * block in that direction, then switch; cold branches predict taken.
 */
class RefBlockPattern : public RefModel
{
  public:
    std::string name() const override { return "ref-block"; }

  private:
    bool prediction(const trace::BranchRecord &br) const override;
    void train(const trace::BranchRecord &br, bool taken) override;

    struct State
    {
        bool dir = true;        // direction of the in-progress block
        int run = 0;            // its length so far
        int lastRun[2] = {255, 255}; // [0]=not-taken, [1]=taken
    };
    std::map<uint64_t, State> table_;
};

/**
 * Reference fixed-length-pattern predictor: replay the branch's outcome
 * from k executions ago (cold default taken until k outcomes exist).
 * It is the single-k definition that FixedPatternBank, the PA
 * classifier's 32-way instrument, is checked against per branch.
 */
class RefFixedPattern : public RefModel
{
  public:
    explicit RefFixedPattern(unsigned k);

    std::string name() const override;

  private:
    bool prediction(const trace::BranchRecord &br) const override;
    void train(const trace::BranchRecord &br, bool taken) override;

    unsigned k_;
    // Full outcome history per branch, newest last. Clarity over
    // space: the reference keeps everything and indexes from the end.
    std::map<uint64_t, std::vector<bool>> outcomes_;
};

/**
 * Reference TAGE-lite predictor sharing the optimized model's TageConfig
 * as data (geometry only; none of the optimized logic is reused). Tables
 * are sparse maps whose absent entries hold the documented initial state
 * — which for a tagged table is a *real* entry with tag 0, counter 0,
 * useful 0, exactly as the optimized dense arrays initialize.
 */
class RefTage : public RefModel
{
  public:
    explicit RefTage(const predictor::TageConfig &config);

    std::string name() const override;

  private:
    bool prediction(const trace::BranchRecord &br) const override;
    void train(const trace::BranchRecord &br, bool taken) override;

    struct Entry
    {
        int tag = 0;
        int ctr = 0;
        int useful = 0;
    };

    struct Lookup
    {
        int provider = -1; //!< tagged table index, -1 = base
        bool prediction = false;
        bool altPrediction = false;
    };

    Entry entryOf(unsigned table, uint64_t index) const;
    uint64_t indexOf(unsigned table, uint64_t pc) const;
    int tagOf(unsigned table, uint64_t pc) const;
    int baseCounterOf(uint64_t pc) const;
    Lookup lookup(uint64_t pc) const;

    predictor::TageConfig config_;
    std::map<uint64_t, int> base_; // base index -> 2-bit counter
    std::vector<std::map<uint64_t, Entry>> tables_;
    std::vector<bool> history_; // newest last
    uint64_t updates_ = 0;
};

/**
 * Reference hashed perceptron sharing the optimized model's
 * PerceptronConfig as data: sparse weight maps, the refFold history
 * hash, and explicit integer clamping.
 */
class RefPerceptron : public RefModel
{
  public:
    explicit RefPerceptron(const predictor::PerceptronConfig &config);

    std::string name() const override;

  private:
    bool prediction(const trace::BranchRecord &br) const override;
    void train(const trace::BranchRecord &br, bool taken) override;

    uint64_t indexOf(unsigned table, uint64_t pc) const;
    int weightOf(unsigned table, uint64_t index) const;
    int sumOf(uint64_t pc) const;

    predictor::PerceptronConfig config_;
    std::vector<std::map<uint64_t, int>> tables_;
    std::vector<bool> history_; // newest last
    int theta_;
    int thetaCtr_ = 0;
};

/**
 * Reference tournament predictor: RefTwoLevel components, a sparse
 * chooser (init weakly-not-taken = 1, selecting the local component),
 * and a clarity-first re-implementation of the set-associative LRU BTB
 * (predictor/btb.hpp semantics: per-access tick, lowest-lastUse victim,
 * first index on ties). The return-address stack is stats-only in the
 * optimized model, so the reference omits it.
 */
class RefTournament : public RefModel
{
  public:
    explicit RefTournament(const predictor::TournamentConfig &config);

    void observe(const trace::BranchRecord &br) noexcept override;
    std::string name() const override;

  private:
    bool prediction(const trace::BranchRecord &br) const override;
    void train(const trace::BranchRecord &br, bool taken) override;

    struct BtbEntry
    {
        uint64_t pc = 0;
        uint64_t lastUse = 0;
    };

    bool btbHit(uint64_t pc) const;
    void btbAccess(uint64_t pc);

    predictor::TournamentConfig config_;
    RefTwoLevel global_;
    RefTwoLevel local_;
    std::map<uint64_t, int> chooser_; // chooser index -> counter 0..3
    // BTB: perfect mode is a set of pcs; finite mode is per-set entry
    // lists in insertion order (matching the optimized table's ways).
    std::map<uint64_t, bool> btbPerfect_;
    std::map<uint64_t, std::vector<BtbEntry>> btbSets_;
    uint64_t btbTick_ = 0;
};

} // namespace copra::check

