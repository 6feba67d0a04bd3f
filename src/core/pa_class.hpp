/**
 * @file
 * Per-address predictability classification (paper §4).
 *
 * Every static branch is scored by the class predictors — loop,
 * repeating pattern (the better of block-pattern and best fixed-length
 * k in 1..32), and non-repeating pattern (interference-free PAs) — and
 * by the ideal static predictor. A branch belongs to the class whose
 * predictor is most accurate for it; branches the ideal static
 * predictor matches or beats belong to no class (paper Fig. 6).
 * Scores accumulate by static id into pc-sorted rows (util/pc_rows.hpp)
 * that every derived or joined ledger shares.
 */

#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "sim/ledger.hpp"
#include "trace/trace.hpp"
#include "util/pc_rows.hpp"

namespace copra::core {

/** The paper's per-address predictability classes. */
enum class PaClass : uint8_t
{
    IdealStatic = 0,  //!< static majority direction is unbeaten
    Loop = 1,         //!< for-type / while-type behaviour (§4.1.1)
    Repeating = 2,    //!< fixed-length or block patterns (§4.1.2)
    NonRepeating = 3, //!< history-predictable, no repetition (§4.1.3)
};

/** Display name of a class. */
const char *paClassName(PaClass cls);

/** Per-branch classification outcome. */
struct PaBranchResult
{
    uint64_t pc = 0;
    uint64_t execs = 0;
    uint64_t taken = 0;

    uint64_t loopCorrect = 0;
    uint64_t blockCorrect = 0;
    uint64_t fixedCorrect = 0;   //!< best over k = 1..32
    uint64_t ifPasCorrect = 0;
    uint64_t staticCorrect = 0;  //!< ideal static (majority direction)
    unsigned bestFixedK = 1;

    PaClass cls = PaClass::IdealStatic;

    /** Correct count of the repeating-pattern class (max of subsets). */
    uint64_t
    repeatingCorrect() const
    {
        return blockCorrect > fixedCorrect ? blockCorrect : fixedCorrect;
    }

    /** Best correct count over the three dynamic classes. */
    uint64_t
    bestDynamicCorrect() const
    {
        uint64_t best = loopCorrect;
        if (repeatingCorrect() > best)
            best = repeatingCorrect();
        if (ifPasCorrect > best)
            best = ifPasCorrect;
        return best;
    }
};

/**
 * Classification of all static branches of a trace, one branch at a
 * time: each is scored over its own outcome stream
 * (trace/branch_streams.hpp), where the loop, block and IF-PAs state
 * machines step through the stream and the 32 fixed-length predictors
 * come from XOR and popcount of the stream against itself.
 *
 * Tie-breaking: ideal static wins ties against every class (the paper
 * counts branches "at least equally well predicted" by ideal static as
 * unclassified); among the classes, ties resolve loop > repeating >
 * non-repeating, preferring the more specific behaviour.
 */
class PaClassifier
{
  public:
    /** Fixed-length-pattern predictors scored per branch: k = 1..32. */
    static constexpr unsigned kMaxFixedK = 32;

    /**
     * @param trace The trace to classify.
     * @param ifpas_history Interference-free PAs history length, in
     * 1..20 (each branch's counters are a dense 2^h table).
     */
    explicit PaClassifier(const trace::Trace &trace,
                          unsigned ifpas_history = 12);

    /** Per-branch results, one row per branch in ascending pc order. */
    const PcRows<PaBranchResult> &branches() const { return rows_; }

    /** Result for one branch (nullptr if it never executed). */
    const PaBranchResult *branch(uint64_t pc) const;

    /**
     * Fraction of dynamic branches in each class, weighted by execution
     * frequency, indexed by PaClass (paper Fig. 6).
     */
    std::array<double, 4> classFractions() const;

    /**
     * Fraction of the dynamic executions in the IdealStatic bucket whose
     * static branch is more than @p threshold biased (the paper reports
     * 88% at 99% bias).
     */
    double staticBucketBiasFraction(double threshold = 0.99) const;

    /** Ledger of the loop class predictor over all branches. */
    sim::Ledger loopLedger() const;

    /** Ledger of the interference-free PAs run over all branches. */
    sim::Ledger ifPasLedger() const;

    /** Ledger of the per-branch best per-address class predictor. */
    sim::Ledger bestPaLedger() const;

    /**
     * Accuracy (%) of the paper's Table 3 hypothetical: the loop
     * predictor for branches classified Loop, @p base for every other
     * branch. @p base must cover the same trace.
     */
    double loopEnhancedAccuracyPercent(const sim::Ledger &base) const;

  private:
    PcRows<PaBranchResult> rows_;
};

} // namespace copra::core

