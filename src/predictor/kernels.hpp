/**
 * @file
 * Telemetry for the table predictors' column batch loops.
 *
 * `TwoLevel` and `Bimodal` answer `Predictor::predictUpdateSoa` with one
 * fused loop per index flavour: for every branch the loop computes the
 * table index inline, trains the saturating counter and shifts the
 * history. Counter training is a serial read-modify-write (two branches
 * in one batch may hit the same counter), so the loop is the whole
 * batch path; this header only counts what it did.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

namespace copra::predictor::kernels {

/**
 * Deferred batch telemetry. The obs counters for batches/branches are
 * cheap but not free (one shared atomic add each), and the batch entry
 * points run once per ~20-branch conditional segment — so counting
 * there per call costs more than the loop itself.
 * Predictors accumulate into this plain struct instead and the totals
 * flush to obs (sim.kernel.*) once, when the predictor is destroyed.
 */
struct BatchCounters
{
    uint64_t batches = 0;
    uint64_t branches = 0;

    BatchCounters() = default;
    // Copying would double-count on flush; moves transfer the totals
    // (predictors must stay move-constructible per contracts.hpp).
    BatchCounters(const BatchCounters &) = delete;
    BatchCounters &operator=(const BatchCounters &) = delete;
    BatchCounters(BatchCounters &&other) noexcept { *this = std::move(other); }
    BatchCounters &
    operator=(BatchCounters &&other) noexcept
    {
        batches += other.batches;
        branches += other.branches;
        other.batches = other.branches = 0;
        return *this;
    }
    ~BatchCounters();

    /** Record one batch of @p n branches. */
    void
    note(size_t n) noexcept
    {
        batches += 1;
        branches += n;
    }
};

} // namespace copra::predictor::kernels
