/**
 * @file
 * Determinism tests for the parallel experiment engine: the parallel
 * paths (runAllParallel, the oracle's partitioned greedy selection, the
 * batched driver loop) must produce results bit-identical to the serial
 * paths for every thread count. Also the test the TSan ctest target
 * runs to catch data races in the sharding.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "core/oracle.hpp"
#include "predictor/bimodal.hpp"
#include "predictor/interference_free.hpp"
#include "predictor/two_level.hpp"
#include "sim/driver.hpp"
#include "util/thread_pool.hpp"
#include "workload/profiles.hpp"

namespace copra::sim {
namespace {

trace::Trace
testTrace()
{
    return workload::makeBenchmarkTrace("gcc", 30000, 0);
}

std::vector<predictor::PredictorPtr>
predictorZoo()
{
    std::vector<predictor::PredictorPtr> zoo;
    zoo.push_back(std::make_unique<predictor::TwoLevel>(
        predictor::TwoLevelConfig::gshare(12)));
    zoo.push_back(std::make_unique<predictor::TwoLevel>(
        predictor::TwoLevelConfig::pas(10, 10, 4)));
    zoo.push_back(std::make_unique<predictor::TwoLevel>(
        predictor::TwoLevelConfig::gag(10)));
    zoo.push_back(std::make_unique<predictor::IfGshare>(12));
    zoo.push_back(std::make_unique<predictor::Bimodal>(12));
    return zoo;
}

std::vector<predictor::Predictor *>
raw(const std::vector<predictor::PredictorPtr> &zoo)
{
    std::vector<predictor::Predictor *> out;
    for (const auto &pred : zoo)
        out.push_back(pred.get());
    return out;
}

/** The serial reference: one explicit run() per predictor. */
std::vector<RunResult>
serialRuns(const trace::Trace &trace,
           const std::vector<predictor::Predictor *> &preds,
           std::vector<Ledger> *ledgers = nullptr)
{
    if (ledgers)
        ledgers->resize(preds.size());
    std::vector<RunResult> results;
    for (size_t i = 0; i < preds.size(); ++i)
        results.push_back(
            run(trace, *preds[i], ledgers ? &(*ledgers)[i] : nullptr));
    return results;
}

void
expectSameResults(const std::vector<RunResult> &a,
                  const std::vector<RunResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].predictorName, b[i].predictorName) << i;
        EXPECT_EQ(a[i].dynamicBranches, b[i].dynamicBranches) << i;
        EXPECT_EQ(a[i].correct, b[i].correct) << i;
    }
}

void
expectSameLedgers(const std::vector<Ledger> &a,
                  const std::vector<Ledger> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        // Both tables are pc-sorted rows, so they compare row by row.
        const auto &ta = a[i].table();
        const auto &tb = b[i].table();
        ASSERT_EQ(ta.size(), tb.size()) << "ledger " << i;
        for (size_t r = 0; r < ta.size(); ++r) {
            const auto &[pc, tally] = ta[r];
            ASSERT_EQ(pc, tb[r].first) << "ledger " << i << " row " << r;
            EXPECT_EQ(tally.execs, tb[r].second.execs) << pc;
            EXPECT_EQ(tally.correct, tb[r].second.correct) << pc;
            EXPECT_EQ(tally.taken, tb[r].second.taken) << pc;
        }
    }
}

TEST(RunAllParallel, MatchesSerialRunsAcrossThreadCounts)
{
    trace::Trace trace = testTrace();

    auto serial_zoo = predictorZoo();
    std::vector<Ledger> serial_ledgers;
    auto serial = serialRuns(trace, raw(serial_zoo), &serial_ledgers);

    for (unsigned threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        auto parallel_zoo = predictorZoo();
        std::vector<Ledger> parallel_ledgers;
        auto parallel = runAllParallel(trace, raw(parallel_zoo),
                                       &parallel_ledgers, &pool);
        expectSameResults(serial, parallel);
        expectSameLedgers(serial_ledgers, parallel_ledgers);
    }
}

TEST(RunAllParallel, UsesGlobalPoolByDefault)
{
    trace::Trace trace = testTrace();
    auto zoo_a = predictorZoo();
    auto zoo_b = predictorZoo();
    auto serial = serialRuns(trace, raw(zoo_a));
    auto parallel = runAllParallel(trace, raw(zoo_b));
    expectSameResults(serial, parallel);
}

TEST(BatchedDriver, TwoLevelBatchMatchesScalarVirtualLoop)
{
    trace::Trace trace = testTrace();

    // Scalar reference: the classic two-virtual-calls-per-branch loop.
    predictor::TwoLevel scalar(predictor::TwoLevelConfig::gshare(12));
    std::map<uint64_t, BranchTally> scalar_tallies;
    uint64_t scalar_correct = 0;
    uint64_t scalar_dynamic = 0;
    for (const auto &rec : trace.records()) {
        if (!rec.isConditional()) {
            scalar.observe(rec);
            continue;
        }
        bool prediction = scalar.predict(rec);
        scalar.update(rec, rec.taken);
        bool correct = prediction == rec.taken;
        ++scalar_dynamic;
        scalar_correct += correct ? 1 : 0;
        BranchTally &tally = scalar_tallies[rec.pc];
        ++tally.execs;
        tally.taken += rec.taken ? 1 : 0;
        tally.correct += correct ? 1 : 0;
    }
    Ledger scalar_ledger(
        PcRows<BranchTally>(scalar_tallies.begin(), scalar_tallies.end()));

    // sim::run drives the devirtualized batch override.
    predictor::TwoLevel batched(predictor::TwoLevelConfig::gshare(12));
    Ledger batched_ledger;
    RunResult result = run(trace, batched, &batched_ledger);

    EXPECT_EQ(result.dynamicBranches, scalar_dynamic);
    EXPECT_EQ(result.correct, scalar_correct);
    std::vector<Ledger> a{scalar_ledger};
    std::vector<Ledger> b{batched_ledger};
    expectSameLedgers(a, b);
}

TEST(ParallelOracle, SelectionIsIdenticalAcrossThreadCounts)
{
    trace::Trace trace = workload::makeBenchmarkTrace("go", 20000, 0);
    core::OracleConfig config;
    config.historyDepth = 12;
    config.candidatePool = 6;
    config.mineConditionals = 20000;

    setGlobalPoolThreads(1);
    core::SelectiveOracle reference(trace, config);

    for (unsigned threads : {2u, 8u}) {
        setGlobalPoolThreads(threads);
        core::SelectiveOracle oracle(trace, config);
        for (unsigned size = 1; size <= 3; ++size) {
            EXPECT_DOUBLE_EQ(oracle.toLedger(size).accuracyPercent(),
                             reference.toLedger(size).accuracyPercent())
                << "threads=" << threads << " size=" << size;
        }
        for (const auto &[pc, sel] : reference.branches()) {
            const core::BranchSelection *other = oracle.branch(pc);
            ASSERT_NE(other, nullptr);
            EXPECT_EQ(sel.correct, other->correct) << pc;
            for (unsigned s = 0; s < 3; ++s) {
                ASSERT_EQ(sel.chosen[s].size(), other->chosen[s].size());
                for (size_t t = 0; t < sel.chosen[s].size(); ++t)
                    EXPECT_TRUE(sel.chosen[s][t] == other->chosen[s][t]);
            }
        }
    }
    setGlobalPoolThreads(0);
}

} // namespace
} // namespace copra::sim
