/**
 * @file
 * Branch-classification hybrid (Chang, Hao, Yeh & Patt, MICRO 1994;
 * paper §2.2): branches are classified by their profiled taken rate, the
 * strongly biased ones are predicted statically (their profiled majority
 * direction) and only the weakly biased ones consume dynamic predictor
 * resources. The paper's Figs. 6-8 quantify exactly why this works: half
 * the dynamic branch stream is at least as predictable statically.
 */

#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "predictor/predictor.hpp"
#include "predictor/state.hpp"
#include "trace/trace.hpp"

namespace copra::predictor {

/** Per-branch profile entry used for classification. */
struct BiasProfile
{
    bool majority = true; //!< profiled majority direction
    bool strongly = false; //!< bias above the classification threshold
};

/**
 * Profile-classified hybrid: static prediction for strongly biased
 * branches, a dynamic component for everything else. Unprofiled branches
 * go to the dynamic component.
 */
class BiasClassifyingHybrid : public Predictor
{
  public:
    /**
     * @param profile Per-branch classification (see profileTrace).
     * @param dynamic Dynamic component for weakly biased branches.
     * @param label Suffix describing the profile (for name()).
     */
    BiasClassifyingHybrid(std::unordered_map<uint64_t, BiasProfile> profile,
                          PredictorPtr dynamic, std::string label = "");

    /**
     * Build the classification profile from a trace: a branch is
     * "strongly biased" when max(taken, not-taken)/execs >= threshold.
     */
    static std::unordered_map<uint64_t, BiasProfile>
    profileTrace(const trace::Trace &trace, double threshold = 0.95);

    bool step(const trace::BranchRecord &br, bool taken) noexcept override;
    uint64_t
    predictUpdateSoa(const SoaBatch &batch, uint8_t *out) noexcept override
    {
        return stepBatch(*this, batch, out);
    }
    void observe(const trace::BranchRecord &br) noexcept override;
    std::string name() const override;

    /** Number of profiled branches classified strongly biased. */
    size_t stronglyBiasedBranches() const;

    // Field taxonomy (DESIGN.md §14): the classification profile is
    // frozen at construction; all adaptive state lives in the dynamic
    // component.
    COPRA_CONFIG_FIELDS(profile_, label_);
    COPRA_STATE_FIELDS(dynamic_);

  private:
    const BiasProfile *entry(uint64_t pc) const noexcept;

    std::unordered_map<uint64_t, BiasProfile> profile_;
    PredictorPtr dynamic_;
    std::string label_;
};

} // namespace copra::predictor

