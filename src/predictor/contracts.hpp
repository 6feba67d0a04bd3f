/**
 * @file
 * Compile-time predictor contracts.
 *
 * The hot path relies on every predictor honouring the Predictor
 * interface shape, and copra_check diffs each one against a reference
 * model. This header makes the *structural* half of those promises a
 * build failure instead of a convention: every type the
 * factory can construct is checked, and adding a predictor to the
 * roster without meeting the contract stops the compile with a message
 * that names the broken clause.
 *
 * To extend the roster: add the header, add the type to the
 * kRosterValidated list below, and the build tells you what's missing.
 * tests/contracts_negative.cmake proves the failure mode stays
 * readable.
 */

#pragma once

#include <cstdint>
#include <string>
#include <type_traits>

#include "predictor/bias_hybrid.hpp"
#include "predictor/bimodal.hpp"
#include "predictor/block_pattern.hpp"
#include "predictor/interference_free.hpp"
#include "predictor/loop_predictor.hpp"
#include "predictor/perceptron.hpp"
#include "predictor/predictor.hpp"
#include "predictor/static_pht.hpp"
#include "predictor/static_pred.hpp"
#include "predictor/tage.hpp"
#include "predictor/tournament.hpp"
#include "predictor/two_level.hpp"
#include "trace/branch_record.hpp"

namespace copra::predictor::contracts {

namespace detail {

/** True when P declares COPRA_STATE_FIELDS(...) in its own scope. */
template <typename P, typename = void>
struct DeclaresStateFields : std::false_type
{
};

template <typename P>
struct DeclaresStateFields<P, std::void_t<decltype(P::kCopraStateFields)>>
    : std::true_type
{
};

} // namespace detail

/**
 * The structural contract every roster predictor must satisfy.
 * Instantiating this template for a non-conforming type fails the
 * build; each clause carries its own message so the first error names
 * the exact violation.
 */
template <typename P>
struct PredictorContract
{
    static_assert(std::is_base_of_v<Predictor, P>,
                  "copra predictor contract: roster types must derive "
                  "from copra::predictor::Predictor so the driver and "
                  "analysis passes stay predictor-agnostic");
    static_assert(!std::is_abstract_v<P>,
                  "copra predictor contract: roster types must be "
                  "concrete — the factory has to construct them");
    static_assert(std::is_move_constructible_v<P>,
                  "copra predictor contract: roster types must be "
                  "move-constructible so experiment tables and hybrids "
                  "can own them by value");
    static_assert(std::is_nothrow_destructible_v<P>,
                  "copra predictor contract: predictor teardown runs "
                  "inside ledger unwinding and must not throw");
    static_assert(
        std::is_invocable_r_v<std::string, decltype(&P::name), const P &>,
        "copra predictor contract: name() must be const-callable and "
        "return std::string — it keys ledgers and golden output");

    // Field taxonomy (DESIGN.md §14): the roster declares its
    // adaptive state in its own scope, so copra_lint's sema pass can
    // hold every member to exactly one of the three lists.
    static_assert(detail::DeclaresStateFields<P>::value,
                  "copra predictor contract: roster types must declare "
                  "COPRA_STATE_FIELDS(...) naming every mutable member "
                  "(copra_lint's sema pass cross-checks the list against "
                  "the parsed members)");

    // A class that declares step() also declares its own batch loop:
    // an inherited predictUpdateSoa() is stepBatch() over the base's
    // step(), a qualified call that would silently bypass P's step().
    static_assert(
        !std::is_same_v<decltype(&P::step),
                        bool (P::*)(const trace::BranchRecord &,
                                    bool) noexcept> ||
            std::is_same_v<decltype(&P::predictUpdateSoa),
                           uint64_t (P::*)(const SoaBatch &,
                                           uint8_t *) noexcept>,
        "copra predictor contract: a roster type that declares step() "
        "must declare its own predictUpdateSoa() (one line: return "
        "stepBatch(*this, batch, out)) — the inherited batch "
        "loop calls the base class's step() and bypasses this one");

    /** Instantiation hook: naming this member forces the checks. */
    static constexpr bool ok = true;
};

/** Conjunction that instantiates the contract for every listed type. */
template <typename... Ps>
inline constexpr bool validateRoster = (PredictorContract<Ps>::ok && ...);

/**
 * Every concrete predictor makePredictor() can return, plus the
 * analysis-only predictors the experiment kernels own by value.
 * factory.cc includes this header, so the whole roster is re-checked
 * on every build of copra_predictor.
 */
inline constexpr bool kRosterValidated = validateRoster<
    // factory roster, in spec-name order (see knownPredictors()):
    AlwaysTaken, AlwaysNotTaken, Btfnt, Bimodal, TwoLevel, IfGshare,
    IfPas, LoopPredictor, BlockPatternPredictor, Tage, Perceptron,
    Tournament,
    // analysis-side predictors constructed outside the factory:
    BiasClassifyingHybrid, StaticPhtTwoLevel>;

static_assert(kRosterValidated,
              "copra predictor contract: roster validation failed");

} // namespace copra::predictor::contracts
