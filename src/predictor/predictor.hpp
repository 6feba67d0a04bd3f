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
#include <span>
#include <string>
#include <vector>

#include "predictor/state.hpp"
#include "trace/branch_record.hpp"
#include "util/hot.hpp"
#include "util/logging.hpp"

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

/**
 * Abstract branch direction predictor.
 *
 * Contract: the driver calls predict() then update() exactly once per
 * dynamic conditional branch, in trace order. predict() must not examine
 * the record's `taken` field — the outcome is delivered via update().
 *
 * The four prediction-path virtuals (predict, update, observe, and the
 * batch entry point) are `noexcept`: they sit inside the
 * COPRA_HOT region, which is exception-free, allocation-free, and
 * lock-free per branch after warm-up (DESIGN.md §15). Contract
 * violations still die loudly through the [[noreturn]] panic/fatal
 * frontier — that is termination, not unwinding.
 */
class Predictor
{
  public:
    virtual ~Predictor() = default;

    /**
     * Predict the direction of a conditional branch.
     *
     * @param br The branch about to execute. Implementations may use the
     *           pc and target fields only.
     * @return true for predicted taken.
     */
    virtual bool predict(const trace::BranchRecord &br) noexcept = 0;

    /**
     * Train on the resolved outcome of the branch most recently passed to
     * predict().
     *
     * @param br The same record passed to predict().
     * @param taken The actual outcome.
     */
    virtual void update(const trace::BranchRecord &br,
                        bool taken) noexcept = 0;

    /**
     * Observe a non-conditional control transfer (jump, call, return).
     * The driver delivers these in trace order between conditional
     * branches; most predictors ignore them, but path- and
     * iteration-aware predictors (e.g. the selective-history predictor)
     * need them for bookkeeping.
     */
    virtual void observe(const trace::BranchRecord &) noexcept {}

    /**
     * Predict-and-train a run of consecutive conditional branches in
     * one call, equivalent to predict(); update(rec, rec.taken) per
     * branch in order — the only batch entry point. The simulation
     * driver hands each conditional run as SoA columns so hot
     * predictors can override this with one tight loop over the
     * contiguous pc/taken arrays (TwoLevel, Bimodal). The
     * default loops the scalar calls, so overriding is purely an
     * optimization and never changes results — the differential suite
     * compares every overriding predictor against the scalar path.
     *
     * @param batch Consecutive conditional branches, in trace order.
     * @param correct_out When non-null, receives one 0/1 entry per
     *                    record: was the prediction correct?
     * @return Number of correct predictions in the batch.
     */
    COPRA_HOT virtual uint64_t
    predictUpdateSoa(const SoaBatch &batch, uint8_t *correct_out) noexcept
    {
        uint64_t n_correct = 0;
        for (size_t i = 0; i < batch.count; ++i) {
            trace::BranchRecord br{batch.pc[i], batch.target[i],
                                   trace::BranchKind::Conditional,
                                   batch.taken[i] != 0};
            bool correct = predict(br) == br.taken;
            update(br, br.taken);
            n_correct += correct ? 1 : 0;
            if (correct_out)
                correct_out[i] = correct ? 1 : 0;
        }
        return n_correct;
    }

    /** Forget all adaptive state. */
    virtual void reset() = 0;

    /** Stable display name, e.g. "gshare(h=16)". */
    virtual std::string name() const = 0;

    // --- State contract (DESIGN.md §14) ----------------------------
    //
    // Roster predictors implement exact bit accounting and declare
    // COPRA_STATE_FIELDS, which defines snapshotState()/restoreState()
    // over the listed members (predictor/state.hpp); the copra_lint
    // sema pass proves every member field is covered by the contract,
    // and copra_check's differential state gates prove the snapshot is
    // complete. The defaults panic rather than being pure virtual so
    // analysis-side helpers and test stubs that are never snapshotted
    // keep compiling unchanged.

    /**
     * Architectural state budget in bits at the current occupancy:
     * table counters, history registers, and tags. Unbounded
     * instruments (interference-free predictors, perfect BTBs) report
     * their dynamically allocated size. Inter-call latches and
     * telemetry are serialized by snapshotState() but not counted.
     */
    virtual uint64_t
    stateBits() const
    {
        panic("predictor '" + name() + "' implements no state "
              "contract (stateBits); roster predictors must");
    }

    /** Serialize every COPRA_STATE_FIELDS member, byte-stably, in
     *  list order. */
    virtual void
    snapshotState(state::Writer &) const
    {
        panic("predictor '" + name() + "' implements no state "
              "contract (snapshotState); roster predictors must");
    }

    /**
     * Restore state written by snapshotState() on a predictor of the
     * same configuration. Geometry mismatches panic.
     */
    virtual void
    restoreState(state::Reader &)
    {
        panic("predictor '" + name() + "' implements no state "
              "contract (restoreState); roster predictors must");
    }

    /** snapshotState() into a fresh byte buffer. */
    std::vector<uint8_t>
    snapshot() const
    {
        state::Writer w;
        snapshotState(w);
        return w.take();
    }

    /** restoreState() from @p bytes; trailing bytes panic. */
    void
    restore(std::span<const uint8_t> bytes)
    {
        state::Reader r(bytes);
        restoreState(r);
        panicIf(r.remaining() != 0,
                "predictor '" + name() + "' left " +
                    std::to_string(r.remaining()) +
                    " trailing snapshot bytes unconsumed");
    }

    /** FNV-1a over snapshot(): equal state implies equal hash, and
     *  the snapshot-completeness gate probes the converse. */
    uint64_t
    stateHash() const
    {
        std::vector<uint8_t> bytes = snapshot();
        return state::fnv1a(bytes);
    }
};

using PredictorPtr = std::unique_ptr<Predictor>;

} // namespace copra::predictor

