/**
 * @file
 * Deliberately non-conforming predictors, compiled (and expected to
 * FAIL) by contracts_negative.cmake. Never part of any build target.
 *
 * Three violation flavours, selected by preprocessor define:
 *
 *  - default: a type that does not derive from Predictor and exposes
 *    none of the interface (breaks the structural clauses).
 *  - COPRA_BREAK_STATE_CONTRACT: a well-formed roster predictor that
 *    declares no COPRA_STATE_FIELDS (breaks the field-list clause).
 *  - COPRA_BREAK_STEP_BATCH: a contracted predictor that declares
 *    step() but inherits the base batch loop instead of declaring its
 *    own predictUpdateSoa() (breaks the batch-loop clause).
 *
 * The test asserts the build stops AND that the diagnostic contains
 * the human-readable "copra predictor contract" clause text.
 */

#include "predictor/contracts.hpp"

#ifdef COPRA_BREAK_STATE_CONTRACT

namespace copra::predictor {

/** Runtime interface complete, field lists missing. */
class StatelessRosterPredictor : public Predictor
{
  public:
    bool step(const trace::BranchRecord &, bool) noexcept override
    {
        return true;
    }
    uint64_t predictUpdateSoa(const SoaBatch &batch,
                              uint8_t *correct_out) noexcept override
    {
        return stepBatch(*this, batch, correct_out);
    }
    std::string name() const override { return "stateless"; }
};

} // namespace copra::predictor

static_assert(
    copra::predictor::contracts::PredictorContract<
        copra::predictor::StatelessRosterPredictor>::ok,
    "unreachable: the state contract must reject this type first");

#elif defined(COPRA_BREAK_STEP_BATCH)

namespace copra::predictor {

/** Field lists declared; the batch loop is inherited. */
class InheritedBatchPredictor : public Predictor
{
  public:
    bool step(const trace::BranchRecord &, bool) noexcept override
    {
        return true;
    }
    std::string name() const override { return "inherited-batch"; }

    COPRA_STATE_FIELDS();
};

} // namespace copra::predictor

static_assert(
    copra::predictor::contracts::PredictorContract<
        copra::predictor::InheritedBatchPredictor>::ok,
    "unreachable: the batch-loop clause must reject this type first");

#else // structural violation

namespace copra::predictor {

class DefinitelyNotAPredictor
{
  public:
    int answer() const { return 42; }
};

} // namespace copra::predictor

static_assert(
    copra::predictor::contracts::PredictorContract<
        copra::predictor::DefinitelyNotAPredictor>::ok,
    "unreachable: the contract must reject this type first");

#endif
