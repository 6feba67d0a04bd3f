#include "core/pa_class.hpp"

#include <vector>

#include "obs/instruments.hpp"
#include "obs/registry.hpp"
#include "predictor/block_pattern.hpp"
#include "predictor/fixed_pattern.hpp"
#include "predictor/interference_free.hpp"
#include "predictor/loop_predictor.hpp"
#include "util/flat_map.hpp"
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

PaClassifier::PaClassifier(const trace::Trace &trace, unsigned ifpas_history)
{
    fatalIf(ifpas_history == 0 || ifpas_history > 32,
            "IF PAs history bits must be in 1..32");
    // The classifier's one wall/CPU pair; the clocks are not read when
    // telemetry is off.
    obs::PhaseTimer timer(obs::ids().simPhasePaClassifierSeconds,
                          obs::ids().simPhasePaClassifierCpuSeconds);

    // One slot per static id for every class predictor: the same
    // transitions as LoopPredictor, BlockPatternPredictor and IfPas with
    // a perfect BTB, minus their pc-keyed lookups.
    struct BranchState
    {
        predictor::LoopState loop;
        predictor::BlockState block;
        predictor::PasHistory history; //!< IF-PAs private history
    };
    const trace::SoABlocks &soa = trace.soa();
    std::vector<BranchState> state(soa.staticCount());
    std::vector<PaBranchResult> table(soa.staticCount());
    predictor::FixedPatternBank fixed(soa.staticCount());
    // Every branch's IF-PAs counters in one table keyed by (table,
    // pattern), table = id + 1: it grows with the trace's distinct
    // (branch, pattern) pairs, not with branches * 2^h.
    FlatMap<Counter2> ifpas;
    const uint64_t history_mask = (uint64_t(1) << ifpas_history) - 1;

    for (const trace::SoABlocks::Segment &seg : soa.conditionalSegments()) {
        for (size_t i = seg.begin; i < seg.begin + seg.count; ++i) {
            const uint32_t id = soa.staticIndex(i);
            const bool taken = soa.taken()[i] != 0;
            PaBranchResult &res = table[id];
            BranchState &st = state[id];
            ++res.execs;
            res.taken += taken;

            res.loopCorrect += st.loop.step(taken) == taken;
            res.blockCorrect += st.block.step(taken) == taken;

            const uint64_t key = st.history.key(id + 1);
            Counter2 *counter = ifpas.find(key);
            if (counter == nullptr)
                counter = &ifpas.insert(key);
            res.ifPasCorrect += counter->taken() == taken;
            counter->update(taken);
            st.history.push(taken, history_mask);

            fixed.observe(id, taken);
        }
    }

    for (uint32_t id = 0; id < table.size(); ++id) {
        PaBranchResult &res = table[id];
        if (res.execs == 0)
            continue;
        res.pc = soa.staticPcs()[id];
        res.fixedCorrect = fixed.bestCorrect(id);
        res.bestFixedK = fixed.bestK(id);
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
