/**
 * @file
 * The branch direction predictor interface.
 *
 * Every predictor in the zoo — static, bimodal, two-level, interference
 * free, loop/pattern, TAGE, perceptron, tournament, and the paper's
 * hypothetical selective history predictor — implements this interface,
 * so the simulation driver and the analysis passes are
 * predictor-agnostic.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>

#include "trace/branch_record.hpp"
#include "util/hot.hpp"

namespace copra::predictor {

/**
 * One run of consecutive conditional branches in structure-of-arrays
 * form (columns borrowed from trace::SoABlocks, offset to the run).
 */
struct SoaBatch
{
    const uint64_t *pc = nullptr;     //!< branch addresses
    const uint64_t *target = nullptr; //!< taken-path targets
    const uint8_t *taken = nullptr;   //!< outcomes, 0/1
    size_t count = 0;
};

class Predictor;

/**
 * The one batch loop: step() each branch of @p batch in order; returns
 * the correct count and, when @p correct_out is non-null, stores 0/1
 * per branch. Classes instantiate it in a one-line predictUpdateSoa(),
 * where the qualified p.P::step call is direct, and inlined when step()
 * is small (virtual only in the base default, P = Predictor). The
 * columns live in locals: a correct_out byte store may alias anything,
 * batch fields included.
 */
template <typename P>
uint64_t
stepBatch(P &p, const SoaBatch &batch, uint8_t *correct_out) noexcept
{
    const uint64_t *pc = batch.pc;
    const uint64_t *target = batch.target;
    const uint8_t *outcome = batch.taken;
    const size_t count = batch.count;
    uint64_t n_correct = 0;
    for (size_t i = 0; i < count; ++i) {
        bool taken = outcome[i] != 0;
        trace::BranchRecord br{pc[i], target[i],
                               trace::BranchKind::Conditional, taken};
        bool predicted;
        if constexpr (std::is_same_v<P, Predictor>)
            predicted = p.step(br, taken);
        else
            predicted = p.P::step(br, taken);
        bool correct = predicted == taken;
        n_correct += correct ? 1 : 0;
        if (correct_out)
            correct_out[i] = correct ? 1 : 0;
    }
    return n_correct;
}

/**
 * Abstract branch direction predictor.
 *
 * Contract: the driver calls step() exactly once per dynamic
 * conditional branch, in trace order: one lookup, then training, and
 * the prediction made before training is returned. It must not depend
 * on `taken`; the differential suite holds every predictor to
 * reference models that predict before they train (and must catch the
 * planted step-peeks-outcome bug).
 *
 * The three prediction-path virtuals (step, observe, and the batch
 * entry point) are `noexcept`: they sit inside the COPRA_HOT region,
 * which is exception-free, allocation-free, and lock-free per branch
 * after warm-up (DESIGN.md §15). Contract violations still die loudly
 * through the [[noreturn]] panic/fatal frontier — that is
 * termination, not unwinding.
 */
class Predictor
{
  public:
    virtual ~Predictor() = default;

    /**
     * Predict a conditional branch, then train on its outcome.
     *
     * @param br The branch. The prediction may use its pc and target
     *           only.
     * @param taken The actual outcome, for training.
     * @return The prediction made before training: true for taken.
     */
    virtual bool step(const trace::BranchRecord &br, bool taken) noexcept = 0;

    /**
     * Observe a non-conditional control transfer (jump, call, return).
     * The driver delivers these in trace order between conditional
     * branches; most predictors ignore them, but path- and
     * iteration-aware predictors (e.g. the selective-history predictor)
     * need them for bookkeeping.
     */
    virtual void observe(const trace::BranchRecord &) noexcept {}

    /**
     * step() a run of consecutive conditional branches in one call —
     * the only batch entry point, fed SoA columns by the driver. Every
     * class that declares step() overrides it with stepBatch() over its
     * own step() (predictor/contracts.hpp enforces it for the roster);
     * TwoLevel alone keeps hand-written loops. The differential suite
     * compares every batch path against the scalar step() path.
     *
     * @param batch Consecutive conditional branches, in trace order.
     * @param correct_out When non-null, receives one 0/1 entry per
     *                    record: was the prediction correct?
     * @return Number of correct predictions in the batch.
     */
    COPRA_HOT virtual uint64_t
    predictUpdateSoa(const SoaBatch &batch, uint8_t *correct_out) noexcept
    {
        return stepBatch(*this, batch, correct_out);
    }

    /** Stable display name, e.g. "gshare(h=16)". */
    virtual std::string name() const = 0;
};

using PredictorPtr = std::unique_ptr<Predictor>;

} // namespace copra::predictor

