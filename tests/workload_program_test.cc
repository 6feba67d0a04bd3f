/**
 * @file
 * Unit tests for the program model: statement semantics, trip generators,
 * execution budget, and determinism.
 */

#include <gtest/gtest.h>

#include "trace/trace_stats.hpp"
#include "workload/frontier.hpp"
#include "workload/profiles.hpp"
#include "workload/program.hpp"

namespace copra::workload {
namespace {

using trace::BranchKind;

/** A program whose driver is a single If over variable 0. */
Program
singleIfProgram(const ConditionSpec &spec)
{
    Program prog;
    prog.addCondition(spec);
    auto body = std::make_unique<BlockStmt>();
    body->append(std::make_unique<SampleStmt>(0));
    body->append(std::make_unique<IfStmt>(0x100, Pred::var(0), nullptr,
                                          nullptr));
    Function driver;
    driver.entryPc = 0x100;
    driver.returnPc = 0x1fc;
    driver.body = std::move(body);
    prog.addFunction(std::move(driver));
    return prog;
}

TEST(ProgramModel, IfEmitsOutcomeOfPredicate)
{
    // Periodic T,F: outcomes must alternate exactly.
    Program prog = singleIfProgram(ConditionSpec::periodic(0b01, 2));
    trace::Trace t = prog.run("if", 10, 1);
    ASSERT_EQ(t.conditionalCount(), 10u);
    // Initial value consumed one sample; each iteration resamples, so the
    // branch sees samples 1, 2, 3, ... of the pattern T F T F ...
    for (size_t i = 0; i < t.size(); ++i) {
        ASSERT_TRUE(t[i].isConditional());
        EXPECT_EQ(t[i].pc, 0x100u);
    }
    // Outcomes alternate (phase depends on the initial sample).
    for (size_t i = 2; i < t.size(); ++i)
        EXPECT_EQ(t[i].taken, t[i - 2].taken);
    EXPECT_NE(t[0].taken, t[1].taken);
}

TEST(ProgramModel, BudgetStopsExactly)
{
    Program prog = singleIfProgram(ConditionSpec::biased(0.5));
    trace::Trace t = prog.run("budget", 1234, 7);
    EXPECT_EQ(t.conditionalCount(), 1234u);
}

TEST(ProgramModel, ZeroBudgetEmitsNothing)
{
    // A budget of 0 conditionals is an empty trace, not one branch
    // emitted before the budget is first checked.
    Program prog = singleIfProgram(ConditionSpec::biased(0.5));
    EXPECT_TRUE(prog.run("zero", 0, 7).empty());
    EXPECT_TRUE(prog.runParallel("zero", 0, 7).empty());
    std::vector<std::string> names = benchmarkNames();
    names.insert(names.end(), frontierNames().begin(),
                 frontierNames().end());
    for (const std::string &name : names)
        EXPECT_TRUE(makeBenchmarkTrace(name, 0, 0).empty()) << name;
}

TEST(ProgramModel, DeterministicPerSeed)
{
    Program prog = singleIfProgram(ConditionSpec::biased(0.5));
    trace::Trace a = prog.run("d", 500, 42);
    trace::Trace b = prog.run("d", 500, 42);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]);
}

TEST(ProgramModel, DifferentSeedsDiffer)
{
    Program prog = singleIfProgram(ConditionSpec::biased(0.5));
    trace::Trace a = prog.run("d", 500, 1);
    trace::Trace b = prog.run("d", 500, 2);
    int same = 0;
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i].taken == b[i].taken)
            ++same;
    EXPECT_LT(same, 450); // overwhelmingly unlikely to match
}

TEST(ProgramModel, RunParallelSmallBudgetMatchesRunExactly)
{
    // Budgets that fit in one generation chunk must replay run()'s
    // stream byte for byte — this keeps every golden and test budget
    // identical to the serial generator.
    Program prog = singleIfProgram(ConditionSpec::biased(0.6));
    trace::Trace serial = prog.run("p", 5000, 11);
    trace::Trace parallel = prog.runParallel("p", 5000, 11);
    EXPECT_EQ(parallel.name(), serial.name());
    EXPECT_EQ(parallel.seed(), serial.seed());
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i)
        ASSERT_EQ(parallel[i], serial[i]) << "record " << i;
}

TEST(ProgramModel, RunParallelMultiChunkIsDeterministic)
{
    // A budget spanning several chunks exercises the fan-out; pool
    // scheduling varies between calls, so equality here checks the
    // index-ordered concatenation really is schedule-independent.
    Program prog = singleIfProgram(ConditionSpec::biased(0.5));
    const uint64_t budget = 600000; // > 2 chunks of 2^18
    trace::Trace a = prog.runParallel("p", budget, 3);
    trace::Trace b = prog.runParallel("p", budget, 3);
    EXPECT_EQ(a.conditionalCount(), budget);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << "record " << i;
}

TEST(ProgramModel, RunParallelChunkZeroReplaysTheSerialStream)
{
    // Chunk 0 keeps the caller's seed, so the first chunk of a
    // multi-chunk trace is exactly the serial trace of one chunk.
    Program prog = singleIfProgram(ConditionSpec::biased(0.5));
    const uint64_t chunk = uint64_t(1) << 18;
    trace::Trace parallel = prog.runParallel("p", chunk * 2 + 100, 9);
    trace::Trace serial = prog.run("p", chunk, 9);
    ASSERT_GE(parallel.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i)
        ASSERT_EQ(parallel[i], serial[i]) << "record " << i;
}

TEST(ProgramModel, ForLoopEmitsForTypePattern)
{
    Program prog;
    size_t site = prog.addTripSite(TripSpec::fixed(4));
    auto body = std::make_unique<BlockStmt>();
    body->append(std::make_unique<ForStmt>(0x100, 0x140, site, nullptr));
    Function driver;
    driver.entryPc = 0x100;
    driver.returnPc = 0x1fc;
    driver.body = std::move(body);
    prog.addFunction(std::move(driver));

    trace::Trace t = prog.run("for", 8, 1);
    ASSERT_EQ(t.size(), 8u);
    // Per invocation: taken, taken, taken, not-taken (trip = 4).
    for (int inv = 0; inv < 2; ++inv) {
        for (int i = 0; i < 3; ++i)
            EXPECT_TRUE(t[inv * 4 + i].taken);
        EXPECT_FALSE(t[inv * 4 + 3].taken);
    }
    // The loop-closing branch is backward.
    EXPECT_TRUE(t[0].isBackward());
    EXPECT_EQ(t[0].target, 0x100u);
}

TEST(ProgramModel, WhileLoopEmitsWhileTypePattern)
{
    Program prog;
    size_t site = prog.addTripSite(TripSpec::fixed(3));
    auto body = std::make_unique<BlockStmt>();
    body->append(
        std::make_unique<WhileStmt>(0x100, 0x144, 0x140, site, nullptr));
    Function driver;
    driver.entryPc = 0x100;
    driver.returnPc = 0x1fc;
    driver.body = std::move(body);
    prog.addFunction(std::move(driver));

    trace::Trace t = prog.run("while", 8, 1);
    // Per invocation: exit test N,N,N then T, with backward jumps after
    // each body iteration.
    unsigned conds = 0;
    bool expect[] = {false, false, false, true};
    unsigned jumps = 0;
    for (size_t i = 0; i < t.size(); ++i) {
        if (t[i].isConditional()) {
            EXPECT_EQ(t[i].taken, expect[conds % 4]) << "cond " << conds;
            ++conds;
        } else {
            EXPECT_EQ(t[i].kind, BranchKind::Jump);
            EXPECT_TRUE(t[i].isBackward());
            ++jumps;
        }
    }
    EXPECT_EQ(conds, 8u);
    EXPECT_EQ(jumps, 6u); // 3 per completed invocation
}

TEST(ProgramModel, ChainStopsAtFirstTrueArm)
{
    Program prog;
    prog.addCondition(ConditionSpec::biased(1.0));  // always true
    prog.addCondition(ConditionSpec::biased(0.0));  // always false

    std::vector<ChainStmt::Arm> arms;
    arms.push_back({0x100, Pred::var(1), nullptr}); // false arm
    arms.push_back({0x104, Pred::var(0), nullptr}); // true arm
    arms.push_back({0x108, Pred::var(0), nullptr}); // never reached
    auto body = std::make_unique<BlockStmt>();
    body->append(std::make_unique<ChainStmt>(std::move(arms), nullptr));
    Function driver;
    driver.entryPc = 0x100;
    driver.returnPc = 0x1fc;
    driver.body = std::move(body);
    prog.addFunction(std::move(driver));

    trace::Trace t = prog.run("chain", 6, 1);
    // Each invocation emits exactly: arm0 not-taken, arm1 taken.
    ASSERT_EQ(t.size(), 6u);
    for (size_t i = 0; i < t.size(); i += 2) {
        EXPECT_EQ(t[i].pc, 0x100u);
        EXPECT_FALSE(t[i].taken);
        EXPECT_EQ(t[i + 1].pc, 0x104u);
        EXPECT_TRUE(t[i + 1].taken);
    }
}

TEST(ProgramModel, CallEmitsCallAndReturnRecords)
{
    Program prog;
    prog.addCondition(ConditionSpec::biased(1.0));

    // Callee: a single If.
    auto callee_body = std::make_unique<BlockStmt>();
    callee_body->append(
        std::make_unique<IfStmt>(0x200, Pred::var(0), nullptr, nullptr));
    Function callee;
    callee.entryPc = 0x200;
    callee.returnPc = 0x2fc;
    callee.body = std::move(callee_body);

    auto driver_body = std::make_unique<BlockStmt>();
    driver_body->append(std::make_unique<CallStmt>(0x100, 1));
    Function driver;
    driver.entryPc = 0x100;
    driver.returnPc = 0x1fc;
    driver.body = std::move(driver_body);

    prog.addFunction(std::move(driver));
    prog.addFunction(std::move(callee));

    trace::Trace t = prog.run("call", 2, 1);
    // Pattern per invocation: call, cond, ret.
    ASSERT_GE(t.size(), 3u);
    EXPECT_EQ(t[0].kind, BranchKind::Call);
    EXPECT_EQ(t[0].target, 0x200u);
    EXPECT_EQ(t[1].kind, BranchKind::Conditional);
    EXPECT_EQ(t[2].kind, BranchKind::Return);
}

TEST(ProgramModel, RecursionDepthIsBounded)
{
    // Function 1 calls itself unconditionally; the depth cap must stop
    // the recursion and the budget must still be reachable via the If.
    Program prog;
    prog.addCondition(ConditionSpec::biased(0.5));

    auto rec_body = std::make_unique<BlockStmt>();
    rec_body->append(
        std::make_unique<IfStmt>(0x204, Pred::var(0), nullptr, nullptr));
    rec_body->append(std::make_unique<CallStmt>(0x208, 1));
    Function rec;
    rec.entryPc = 0x200;
    rec.returnPc = 0x2fc;
    rec.body = std::move(rec_body);

    auto driver_body = std::make_unique<BlockStmt>();
    driver_body->append(std::make_unique<SampleStmt>(0));
    driver_body->append(std::make_unique<CallStmt>(0x100, 1));
    Function driver;
    driver.entryPc = 0x100;
    driver.returnPc = 0x1fc;
    driver.body = std::move(driver_body);

    prog.addFunction(std::move(driver));
    prog.addFunction(std::move(rec));

    trace::Trace t = prog.run("rec", 100, 3);
    EXPECT_EQ(t.conditionalCount(), 100u);
}

TEST(ProgramModel, AssignCreatesOutcomeCorrelation)
{
    // Fig. 1b: branch Y taken => var 1 set true; branch X tests var 1.
    Program prog;
    prog.addCondition(ConditionSpec::biased(0.5)); // var 0 drives Y
    prog.addCondition(ConditionSpec::biased(0.5)); // var 1, overwritten

    auto then_block = std::make_unique<BlockStmt>();
    then_block->append(std::make_unique<AssignStmt>(1, 1.0));
    auto else_block = std::make_unique<BlockStmt>();
    else_block->append(std::make_unique<AssignStmt>(1, 0.0));

    auto body = std::make_unique<BlockStmt>();
    body->append(std::make_unique<SampleStmt>(0));
    body->append(std::make_unique<IfStmt>(0x100, Pred::var(0),
                                          std::move(then_block),
                                          std::move(else_block)));
    body->append(
        std::make_unique<IfStmt>(0x120, Pred::var(1), nullptr, nullptr));
    Function driver;
    driver.entryPc = 0x100;
    driver.returnPc = 0x1fc;
    driver.body = std::move(body);
    prog.addFunction(std::move(driver));

    trace::Trace t = prog.run("fig1b", 200, 5);
    // Records alternate Y, X; X's outcome must equal Y's.
    for (size_t i = 0; i + 1 < t.size(); i += 2) {
        ASSERT_EQ(t[i].pc, 0x100u);
        ASSERT_EQ(t[i + 1].pc, 0x120u);
        EXPECT_EQ(t[i].taken, t[i + 1].taken);
    }
}

TEST(TripState, FixedAlwaysSame)
{
    TripState st(TripSpec::fixed(7), Rng(1));
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(st.next(), 7u);
}

TEST(TripState, UniformStaysInRange)
{
    TripState st(TripSpec::uniform(3, 9), Rng(2));
    for (int i = 0; i < 200; ++i) {
        uint32_t v = st.next();
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 9u);
    }
}

TEST(TripState, DriftChangesInfrequentlyAndStaysInRange)
{
    TripState st(TripSpec::drift(4, 8, 10), Rng(3));
    uint32_t prev = st.next();
    int changes = 0;
    for (int i = 1; i < 500; ++i) {
        uint32_t v = st.next();
        ASSERT_GE(v, 4u);
        ASSERT_LE(v, 8u);
        ASSERT_LE(static_cast<int>(v) - static_cast<int>(prev), 1);
        ASSERT_GE(static_cast<int>(v) - static_cast<int>(prev), -1);
        if (v != prev)
            ++changes;
        prev = v;
    }
    // With period 10, at most ~50 of 500 steps can change.
    EXPECT_LE(changes, 50);
    EXPECT_GT(changes, 0);
}

TEST(ProgramModelDeath, EmptyProgramPanics)
{
    Program prog;
    EXPECT_DEATH(prog.run("x", 10, 1), "no functions");
}

TEST(ProgramModelDeath, NonEmittingDriverPanics)
{
    Program prog;
    prog.addCondition(ConditionSpec::biased(0.5));
    auto body = std::make_unique<BlockStmt>();
    body->append(std::make_unique<SampleStmt>(0));
    Function driver;
    driver.entryPc = 0x100;
    driver.returnPc = 0x1fc;
    driver.body = std::move(body);
    prog.addFunction(std::move(driver));
    EXPECT_DEATH(prog.run("x", 10, 1), "");
}

} // namespace
} // namespace copra::workload
