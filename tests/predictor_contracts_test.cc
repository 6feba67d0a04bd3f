/**
 * @file
 * Runtime companion to the compile-time predictor contracts: the
 * static_asserts in predictor/contracts.hpp prove the roster's shape;
 * these tests prove the behavioural half on live instances — every
 * factory spec constructs, names itself, and keeps the batch
 * entry point equivalent to the scalar step() loop.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "check/fuzz.hpp"
#include "predictor/contracts.hpp"
#include "predictor/factory.hpp"

namespace {

using copra::predictor::makePredictor;
using copra::predictor::knownPredictors;

TEST(PredictorContracts, RosterIsStaticallyValidated)
{
    // Compile-time fact re-stated at runtime so a test run documents
    // that the contract layer was actually built in.
    static_assert(copra::predictor::contracts::kRosterValidated);
    SUCCEED();
}

TEST(PredictorContracts, EveryFactorySpecConstructsAndNames)
{
    for (const std::string &spec : knownPredictors()) {
        auto pred = makePredictor(spec);
        ASSERT_NE(pred, nullptr) << spec;
        EXPECT_FALSE(pred->name().empty()) << spec;
    }
}

TEST(PredictorContracts, BatchEntryPointMatchesScalarLoop)
{
    // The conditionals of a fuzzed trace as one column batch, fed
    // through predictUpdateSoa in runs of varying length.
    copra::trace::Trace trace = copra::check::fuzzTrace(7, 4000);
    std::vector<uint64_t> pc, target;
    std::vector<uint8_t> taken;
    for (const auto &rec : trace.records()) {
        if (!rec.isConditional())
            continue;
        pc.push_back(rec.pc);
        target.push_back(rec.target);
        taken.push_back(rec.taken ? 1 : 0);
    }
    ASSERT_FALSE(pc.empty());

    for (const std::string &spec : knownPredictors()) {
        auto batched = makePredictor(spec);
        auto scalar = makePredictor(spec);
        std::vector<uint8_t> batch_correct(pc.size());
        uint64_t batch_total = 0;
        for (size_t begin = 0, run = 1; begin < pc.size(); run *= 3) {
            size_t count = std::min(run, pc.size() - begin);
            copra::predictor::SoaBatch batch{&pc[begin], &target[begin],
                                             &taken[begin], count};
            batch_total += batched->predictUpdateSoa(
                batch, batch_correct.data() + begin);
            begin += count;
        }
        uint64_t scalar_total = 0;
        for (size_t i = 0; i < pc.size(); ++i) {
            copra::trace::BranchRecord rec{
                pc[i], target[i], copra::trace::BranchKind::Conditional,
                taken[i] != 0};
            bool correct = scalar->step(rec, rec.taken) == rec.taken;
            scalar_total += correct ? 1 : 0;
            ASSERT_EQ(batch_correct[i], correct ? 1 : 0)
                << spec << " conditional " << i;
        }
        EXPECT_EQ(batch_total, scalar_total) << spec;
    }
}

} // namespace
