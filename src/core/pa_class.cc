#include "core/pa_class.hpp"

#include <algorithm>
#include <bit>
#include <vector>

#include "obs/instruments.hpp"
#include "obs/registry.hpp"
#include "predictor/block_pattern.hpp"
#include "predictor/interference_free.hpp"
#include "predictor/loop_predictor.hpp"
#include "trace/branch_streams.hpp"
#include "util/logging.hpp"
#include "util/sat_counter.hpp"

namespace copra::core {

const char *
paClassName(PaClass cls)
{
    switch (cls) {
      case PaClass::IdealStatic:
        return "ideal-static";
      case PaClass::Loop:
        return "loop";
      case PaClass::Repeating:
        return "repeating";
      case PaClass::NonRepeating:
        return "non-repeating";
    }
    return "unknown";
}

namespace {

/**
 * Correct counts of the fixed-length-pattern predictors k = 1..32
 * (paper §4.1.2) over one branch's stream, index k - 1. Predictor k
 * replays the outcome from k executions ago and predicts taken for the
 * first min(k, n) executions. Past warm-up, execution j is correct iff
 * it equals execution j - k, so predictor k misses the popcount of the
 * stream XOR itself shifted by k over its first n - k bits.
 */
std::array<uint64_t, PaClassifier::kMaxFixedK>
fixedPatternCorrect(const trace::BranchStreams::Stream &stream)
{
    constexpr unsigned kMax = PaClassifier::kMaxFixedK;
    const uint64_t n = stream.size;
    const uint64_t *w = stream.words;
    std::array<uint64_t, kMax> misses{};
    // Word i holds executions 64i..64i+63; the words k later in the
    // stream are (w[i] >> k) | (w[i + 1] << (64 - k)). Words whose 64
    // comparisons all lie below n - 32 need no mask for any k.
    const uint64_t unmasked = n >= kMax ? (n - kMax) / 64 : 0;
    for (uint64_t i = 0; i < unmasked; ++i)
        for (unsigned k = 1; k <= kMax; ++k)
            misses[k - 1] += std::popcount(
                w[i] ^ ((w[i] >> k) | (w[i + 1] << (64 - k))));
    for (uint64_t i = unmasked; i * 64 < n; ++i) {
        for (unsigned k = 1; k <= kMax; ++k) {
            const uint64_t compared = n > k ? n - k : 0;
            if (i * 64 >= compared)
                continue;
            uint64_t diff = w[i] ^ ((w[i] >> k) | (w[i + 1] << (64 - k)));
            if (compared - i * 64 < 64)
                diff &= (uint64_t(1) << (compared - i * 64)) - 1;
            misses[k - 1] += std::popcount(diff);
        }
    }
    std::array<uint64_t, kMax> correct{};
    for (unsigned k = 1; k <= kMax; ++k) {
        const uint64_t warm = k < n ? k : n;
        const uint64_t compared = n - warm;
        correct[k - 1] = std::popcount(w[0] & ((uint64_t(1) << warm) - 1)) +
            compared - misses[k - 1];
    }
    return correct;
}

} // namespace

PaClassifier::PaClassifier(const trace::Trace &trace, unsigned ifpas_history)
{
    fatalIf(ifpas_history == 0 || ifpas_history > 20,
            "IF PAs history bits must be in 1..20");
    // The classifier's one wall/CPU pair; the clocks are not read when
    // telemetry is off.
    obs::PhaseTimer timer(obs::ids().simPhasePaClassifierSeconds,
                          obs::ids().simPhasePaClassifierCpuSeconds);

    // Every class predictor runs over one branch's outcome stream at a
    // time, with the same transitions as LoopPredictor,
    // BlockPatternPredictor and IfPas under a perfect BTB.
    const trace::SoABlocks &soa = trace.soa();
    const trace::BranchStreams streams(soa);
    // IF-PAs: one private table of 2^h counters, reused by each branch
    // in turn; an entry resets the first time a new branch touches it.
    struct IfPasEntry
    {
        uint32_t owner = UINT32_MAX; //!< static id of its counter
        Counter2 counter;
    };
    std::vector<IfPasEntry> ifpas(size_t(1) << ifpas_history);
    const uint64_t history_mask = ifpas.size() - 1;
    std::vector<PaBranchResult> table(soa.staticCount());

    for (uint32_t id = 0; id < table.size(); ++id) {
        const trace::BranchStreams::Stream stream = streams.stream(id);
        PaBranchResult &res = table[id];
        res.execs = stream.size;
        if (res.execs == 0)
            continue;
        predictor::LoopState loop;
        predictor::BlockState block;
        predictor::PasHistory history;
        for (uint64_t j = 0; j < stream.size; ++j) {
            const bool taken = stream[j];
            res.taken += taken;
            res.loopCorrect += loop.step(taken) == taken;
            res.blockCorrect += block.step(taken) == taken;
            IfPasEntry &entry = ifpas[history.bits];
            if (entry.owner != id)
                entry = {id, Counter2{}};
            res.ifPasCorrect += entry.counter.taken() == taken;
            entry.counter.update(taken);
            history.push(taken, history_mask);
        }

        res.pc = soa.staticPcs()[id];
        const std::array<uint64_t, kMaxFixedK> fixed =
            fixedPatternCorrect(stream);
        // The first maximum: the smallest best k.
        const auto best = std::max_element(fixed.begin(), fixed.end());
        res.fixedCorrect = *best;
        res.bestFixedK = static_cast<unsigned>(best - fixed.begin()) + 1;
        uint64_t not_taken = res.execs - res.taken;
        res.staticCorrect = res.taken > not_taken ? res.taken : not_taken;

        // Classify: ideal static wins ties; then loop > repeating >
        // non-repeating.
        if (res.staticCorrect >= res.bestDynamicCorrect()) {
            res.cls = PaClass::IdealStatic;
        } else if (res.loopCorrect >= res.repeatingCorrect() &&
                   res.loopCorrect >= res.ifPasCorrect) {
            res.cls = PaClass::Loop;
        } else if (res.repeatingCorrect() >= res.ifPasCorrect) {
            res.cls = PaClass::Repeating;
        } else {
            res.cls = PaClass::NonRepeating;
        }
    }
    rows_ = rowsFromIds(soa.staticPcs(), table, [](const PaBranchResult &res) {
        return res.execs != 0;
    });
}

const PaBranchResult *
PaClassifier::branch(uint64_t pc) const
{
    return findRow(rows_, pc);
}

std::array<double, 4>
PaClassifier::classFractions() const
{
    std::array<uint64_t, 4> execs{};
    uint64_t total = 0;
    for (const auto &[pc, res] : rows_) {
        execs[static_cast<size_t>(res.cls)] += res.execs;
        total += res.execs;
    }
    std::array<double, 4> fractions{};
    if (total == 0)
        return fractions;
    for (size_t i = 0; i < 4; ++i)
        fractions[i] = static_cast<double>(execs[i])
            / static_cast<double>(total);
    return fractions;
}

double
PaClassifier::staticBucketBiasFraction(double threshold) const
{
    uint64_t bucket = 0;
    uint64_t biased = 0;
    for (const auto &[pc, res] : rows_) {
        if (res.cls != PaClass::IdealStatic)
            continue;
        bucket += res.execs;
        double bias = res.execs
            ? static_cast<double>(res.staticCorrect) / res.execs : 0.0;
        if (bias > threshold)
            biased += res.execs;
    }
    if (bucket == 0)
        return 0.0;
    return static_cast<double>(biased) / static_cast<double>(bucket);
}

sim::Ledger
PaClassifier::loopLedger() const
{
    return sim::ledgerOf(
        rows_, [](const PaBranchResult &res) { return res.loopCorrect; });
}

sim::Ledger
PaClassifier::ifPasLedger() const
{
    return sim::ledgerOf(
        rows_, [](const PaBranchResult &res) { return res.ifPasCorrect; });
}

sim::Ledger
PaClassifier::bestPaLedger() const
{
    return sim::ledgerOf(rows_, [](const PaBranchResult &res) {
        return res.bestDynamicCorrect();
    });
}

double
PaClassifier::loopEnhancedAccuracyPercent(const sim::Ledger &base) const
{
    requireAligned(rows_, base.table(),
                   "loopEnhancedAccuracyPercent: base ledger covers a "
                   "different trace");
    uint64_t total = 0;
    uint64_t correct = 0;
    for (size_t i = 0; i < rows_.size(); ++i) {
        const PaBranchResult &res = rows_[i].second;
        total += res.execs;
        correct += res.cls == PaClass::Loop ? res.loopCorrect
                                            : base.table()[i].second.correct;
    }
    if (total == 0)
        return 0.0;
    return 100.0 * static_cast<double>(correct)
        / static_cast<double>(total);
}

} // namespace copra::core
