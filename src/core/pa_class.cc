#include "core/pa_class.hpp"

#include <vector>

#include "predictor/block_pattern.hpp"
#include "predictor/fixed_pattern.hpp"
#include "predictor/interference_free.hpp"
#include "predictor/loop_predictor.hpp"

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
    predictor::LoopPredictor loop;
    predictor::BlockPatternPredictor block;
    predictor::FixedPatternBank fixed;
    predictor::IfPas ifpas(ifpas_history);

    const trace::SoABlocks &soa = trace.soa();
    std::vector<PaBranchResult> table(soa.staticCount());
    for (const trace::SoABlocks::Segment &seg : soa.conditionalSegments()) {
        for (size_t i = seg.begin; i < seg.begin + seg.count; ++i) {
            const trace::BranchRecord rec = soa.record(i);
            PaBranchResult &res = table[soa.staticIndex()[i]];
            res.pc = rec.pc;
            ++res.execs;
            if (rec.taken)
                ++res.taken;

            if (loop.predict(rec) == rec.taken)
                ++res.loopCorrect;
            loop.update(rec, rec.taken);

            if (block.predict(rec) == rec.taken)
                ++res.blockCorrect;
            block.update(rec, rec.taken);

            if (ifpas.predict(rec) == rec.taken)
                ++res.ifPasCorrect;
            ifpas.update(rec, rec.taken);

            fixed.observe(rec.pc, rec.taken);
        }
    }

    rows_ = rowsFromIds(soa.staticPcs(), table, [](const PaBranchResult &res) {
        return res.execs != 0;
    });
    for (auto &[pc, res] : rows_) {
        res.fixedCorrect = fixed.bestCorrect(pc);
        res.bestFixedK = fixed.bestK(pc);
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
