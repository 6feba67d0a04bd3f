/**
 * @file
 * Robustness sweep: every predictor in the zoo against randomized
 * stress traces — mixed record kinds, pathological pc layouts, phase
 * changes — checking the structural invariants that must hold for any
 * predictor (determinism across fresh instances, result bounds, ledger
 * consistency), independent of accuracy.
 */

#include <gtest/gtest.h>

#include "core/oracle.hpp"
#include "predictor/factory.hpp"
#include "sim/driver.hpp"
#include "util/rng.hpp"
#include "workload/patterns.hpp"

namespace copra {
namespace {

/** A stress trace with mixed kinds and adversarial pc patterns. */
trace::Trace
stressTrace(uint64_t seed, size_t conditionals)
{
    trace::Trace t("stress", seed);
    Rng rng(seed);
    size_t emitted = 0;
    while (emitted < conditionals) {
        double roll = rng.uniform();
        if (roll < 0.70) {
            // Conditional with adversarial pcs: aliasing-prone strides,
            // identical low bits, and occasional huge addresses.
            uint64_t pc;
            switch (rng.index(4)) {
              case 0:
                pc = 0x1000 + 4 * rng.index(8);
                break;
              case 1:
                pc = 0x1000 + (uint64_t(1) << (10 + rng.index(6)));
                break;
              case 2:
                pc = 0xffff0000ull + 4 * rng.index(16);
                break;
              default:
                pc = 4 * rng.index(1u << 20);
            }
            bool backward = rng.bernoulli(0.3);
            uint64_t target = backward && pc >= 256
                ? pc - 256 : pc + 4 + 4 * rng.index(64);
            t.append({pc, target, trace::BranchKind::Conditional,
                      rng.bernoulli(0.5)});
            ++emitted;
        } else if (roll < 0.85) {
            uint64_t pc = 4 * rng.index(1u << 16);
            t.append({pc, 4 * rng.index(1u << 16),
                      trace::BranchKind::Jump, true});
        } else if (roll < 0.93) {
            uint64_t pc = 4 * rng.index(1u << 16);
            t.append({pc, 4 * rng.index(1u << 16),
                      trace::BranchKind::Call, true});
        } else {
            uint64_t pc = 4 * rng.index(1u << 16);
            t.append({pc, 4 * rng.index(1u << 16),
                      trace::BranchKind::Return, true});
        }
    }
    return t;
}

class ZooRobustness : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ZooRobustness, SurvivesStressTraceWithConsistentAccounting)
{
    auto trace = stressTrace(0xBEEF, 5000);
    auto pred = predictor::makePredictor(GetParam());
    sim::Ledger ledger;
    auto result = sim::run(trace, *pred, &ledger);
    EXPECT_EQ(result.dynamicBranches, 5000u);
    EXPECT_LE(result.correct, result.dynamicBranches);
    EXPECT_GE(result.accuracyPercent(), 0.0);
    EXPECT_LE(result.accuracyPercent(), 100.0);
    EXPECT_EQ(ledger.dynamic(), result.dynamicBranches);
    EXPECT_EQ(ledger.correct(), result.correct);
}

TEST_P(ZooRobustness, IsDeterministic)
{
    auto trace = stressTrace(0xF00D, 3000);
    auto a = predictor::makePredictor(GetParam());
    auto b = predictor::makePredictor(GetParam());
    EXPECT_EQ(sim::run(trace, *a).correct, sim::run(trace, *b).correct);
}

TEST_P(ZooRobustness, PhaseChangeDoesNotBreakAccounting)
{
    // Concatenate two stress traces with disjoint behaviour.
    auto t1 = stressTrace(1, 2000);
    auto t2 = stressTrace(2, 2000);
    trace::Trace combined("phases");
    for (const auto &rec : t1.records())
        combined.append(rec);
    for (const auto &rec : t2.records())
        combined.append(rec);
    auto pred = predictor::makePredictor(GetParam());
    auto result = sim::run(combined, *pred);
    EXPECT_EQ(result.dynamicBranches, 4000u);
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ZooRobustness,
    ::testing::ValuesIn(predictor::knownPredictors()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(OracleTagFilter, EachMethodAloneStillWorks)
{
    auto trace = workload::correlatedPairTrace(0x100, 0x200, 0.5, 1.0,
                                               4000, 3);
    using Filter = core::OracleConfig::TagFilter;
    for (Filter filter : {Filter::OccurrenceOnly, Filter::BackwardOnly,
                          Filter::Both}) {
        core::OracleConfig config;
        config.tagFilter = filter;
        core::SelectiveOracle oracle(trace, config);
        const auto *x = oracle.branch(0x200);
        ASSERT_NE(x, nullptr);
        // The Y0 correlation is visible under either tagging method
        // (no backward transfers here, so method B numbers are all 0).
        EXPECT_GT(100.0 * x->correct[0] / x->execs, 98.0)
            << static_cast<int>(filter);
        // The filter is actually enforced on the chosen tags.
        for (const auto &tag : x->chosen[0]) {
            if (filter == Filter::OccurrenceOnly) {
                EXPECT_EQ(tag.method(), core::TagMethod::Occurrence);
            }
            if (filter == Filter::BackwardOnly) {
                EXPECT_EQ(tag.method(), core::TagMethod::BackwardCount);
            }
        }
    }
}

TEST(OracleTagFilter, BackwardOnlyWinsOnIterationPinnedCorrelation)
{
    // The in-path trace closes each iteration with a backward jump;
    // method B pins "V this iteration" exactly while occurrence tags
    // are diluted by stale instances (see selective_test).
    auto trace = workload::inPathTrace(0x100, 0.5, 0.5, 0.5, 10000, 13);
    using Filter = core::OracleConfig::TagFilter;

    auto accuracy_for = [&](Filter filter) {
        core::OracleConfig config;
        config.tagFilter = filter;
        core::SelectiveOracle oracle(trace, config);
        const auto *x = oracle.branch(0x140);
        return 100.0 * static_cast<double>(x->correct[0]) /
            static_cast<double>(x->execs);
    };
    double backward = accuracy_for(Filter::BackwardOnly);
    double both = accuracy_for(Filter::Both);
    // The union must recover whatever the better single method found.
    EXPECT_GE(both + 0.5, backward);
    EXPECT_GT(backward, 90.0);
}

} // namespace
} // namespace copra
