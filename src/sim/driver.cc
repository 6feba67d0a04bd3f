#include "sim/driver.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "obs/instruments.hpp"
#include "obs/registry.hpp"
#include "trace/trace_soa.hpp"

namespace copra::sim {

LoopTotals
runLoop(const trace::SoABlocks &soa, predictor::Predictor &pred,
        uint8_t *correct_scratch, uint64_t *packed,
        BranchTally *tallies) noexcept
{
    // Ledger path: accumulate per-site words addressed by the record's
    // site id (no hashing, no gather per branch), and reduce sites to
    // branches in flush(). The hot loop does ONE u64 add per branch
    // into a packed execs/taken/correct word (21 bits each, flushed to
    // the wide tallies well before any field can saturate), keeping the
    // randomly-addressed array at 8 bytes per site — L1-sized for every
    // benchmark. Folding is additive, so the result is identical to
    // counting every branch into its tally directly.
    constexpr uint64_t kFieldMask = (uint64_t(1) << 21) - 1;
    constexpr uint64_t kFlushEvery = uint64_t(1) << 20;
    const std::span<const trace::Site> sites = soa.sites();
    const size_t siteCount = packed ? sites.size() : 0;
    uint64_t since_flush = 0;
    auto flush = [&]() noexcept {
        for (size_t s = 0; s < siteCount; ++s) {
            uint64_t p = packed[s];
            if (p == 0)
                continue;
            packed[s] = 0;
            BranchTally &t = tallies[sites[s].branch];
            t.execs += p & kFieldMask;
            t.taken += (p >> 21) & kFieldMask;
            t.correct += (p >> 42) & kFieldMask;
        }
        since_flush = 0;
    };

    // Records [pos, end) between conditional runs go to observe().
    size_t pos = 0;
    auto observeUntil = [&](size_t end) noexcept {
        for (; pos < end; ++pos)
            pred.observe(soa.record(pos));
    };

    LoopTotals totals;
    for (const trace::SoABlocks::Segment &seg : soa.conditionalSegments()) {
        observeUntil(seg.begin);
        predictor::SoaBatch batch{soa.site() + seg.begin,
                                  soa.taken() + seg.begin, sites.data(),
                                  seg.count};
        if (packed) {
            totals.correct +=
                pred.predictUpdateSoa(batch, correct_scratch);
            const uint32_t *site = batch.site;
            const uint8_t *taken = batch.taken;
            // Accumulate in flush-bounded chunks: a single segment can
            // exceed 2^21 branches (long ingested foreign traces), and
            // a segment-granular flush would let one site's 21-bit execs
            // field wrap and carry into the taken field.
            size_t k = 0;
            while (k < seg.count) {
                size_t chunk = static_cast<size_t>(std::min<uint64_t>(
                    seg.count - k, kFlushEvery - since_flush));
                for (size_t end = k + chunk; k < end; ++k) {
                    packed[site[k]] += 1 | (uint64_t(taken[k]) << 21) |
                        (uint64_t(correct_scratch[k]) << 42);
                }
                since_flush += chunk;
                if (since_flush >= kFlushEvery)
                    flush();
            }
        } else {
            totals.correct += pred.predictUpdateSoa(batch, nullptr);
        }
        totals.branches += seg.count;
        pos = seg.begin + seg.count;
    }
    observeUntil(soa.size());
    if (packed)
        flush();
    return totals;
}

size_t
maxSegmentCount(const trace::SoABlocks &soa)
{
    size_t longest = 0;
    for (const trace::SoABlocks::Segment &seg : soa.conditionalSegments())
        longest = std::max(longest, seg.count);
    return longest;
}

RunResult
run(const trace::Trace &trace, predictor::Predictor &pred, Ledger *ledger)
{
    RunResult result;
    result.predictorName = pred.name();

    // Feed maximal runs of consecutive conditional branches through the
    // batch entry point: TwoLevel's hand-written loops consume the
    // contiguous site/taken columns directly, and every other predictor
    // runs stepBatch() over its own step(), the scalar call sequence
    // exactly. Non-conditional records between runs are delivered to
    // observe() in trace order.
    //
    // Every buffer the loop touches is allocated here, before runLoop:
    // the loop itself is the COPRA_HOT region and performs no heap
    // allocation of its own (`copra_check --hot-gates` enforces this).
    const trace::SoABlocks &soa = trace.soa();
    std::vector<BranchTally> tallies(ledger ? soa.staticCount() : 0);
    std::vector<uint64_t> packed(ledger ? soa.siteCount() : 0, 0);
    std::vector<uint8_t> correct(ledger ? maxSegmentCount(soa) : 0);

    LoopTotals totals =
        runLoop(soa, pred, correct.data(), ledger ? packed.data() : nullptr,
                ledger ? tallies.data() : nullptr);
    result.correct = totals.correct;
    result.dynamicBranches = totals.branches;

    if (ledger)
        *ledger = Ledger(rowsFromIds(
            soa.staticPcs(), tallies,
            [](const BranchTally &t) { return t.execs != 0; }));
    obs::count(obs::ids().simRunBranches, result.dynamicBranches);
    obs::count(obs::ids().simRunMispredicts,
               result.dynamicBranches - result.correct);
    return result;
}

} // namespace copra::sim
