/**
 * @file
 * Unit tests for the finite BTB substrate and the class predictors
 * running over it (the ablation of the paper's perfect-BTB assumption).
 */

#include <gtest/gtest.h>

#include "predictor/block_pattern.hpp"
#include "predictor/btb.hpp"
#include "predictor/loop_predictor.hpp"
#include "sim/driver.hpp"
#include "workload/patterns.hpp"

namespace copra::predictor {
namespace {

TEST(BtbConfig, Describe)
{
    EXPECT_EQ(BtbConfig::perfect().describe(), "perfect");
    EXPECT_EQ(BtbConfig::finite(4, 2).describe(), "16x2");
    EXPECT_TRUE(BtbConfig::perfect().isPerfect());
    EXPECT_FALSE(BtbConfig::finite(4, 2).isPerfect());
    EXPECT_EQ(BtbConfig::finite(4, 2).entries(), 32u);
    EXPECT_EQ(BtbConfig::perfect().entries(), 0u);
}

TEST(BtbTable, PerfectNeverEvicts)
{
    BtbTable<int> table(BtbConfig::perfect());
    for (uint64_t pc = 0; pc < 10000; pc += 4)
        table.access(pc) = static_cast<int>(pc);
    EXPECT_EQ(table.size(), 2500u);
    EXPECT_EQ(table.evictions(), 0u);
    ASSERT_NE(table.find(0x100), nullptr);
    EXPECT_EQ(*table.find(0x100), 0x100);
}

TEST(BtbTable, FindDoesNotAllocate)
{
    BtbTable<int> table(BtbConfig::finite(2, 2));
    EXPECT_EQ(table.find(0x100), nullptr);
    EXPECT_EQ(table.size(), 0u);
    table.access(0x100) = 7;
    const int *found = table.find(0x100);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, 7);
}

TEST(BtbTable, SetSelectionUsesPcBits)
{
    // pcs 0x100 and 0x104 land in different sets of a 4-set table.
    BtbTable<int> table(BtbConfig::finite(2, 1));
    table.access(0x100) = 1;
    table.access(0x104) = 2;
    EXPECT_NE(table.find(0x100), nullptr);
    EXPECT_NE(table.find(0x104), nullptr);
    EXPECT_EQ(table.evictions(), 0u);
}

TEST(BtbTable, LruEvictionWithinSet)
{
    // One set (setBits 0 is not allowed for finite; use 1 set via
    // pcs with equal set index), 2 ways.
    BtbTable<int> table(BtbConfig::finite(1, 2));
    // pcs 0x100, 0x108, 0x110 share set 0 (bit 2 of pc>>2 ... compute:
    // set = (pc>>2) & 1: 0x100>>2=0x40 (even), 0x108>>2=0x42 (even),
    // 0x110>>2=0x44 (even) -> all set 0.
    table.access(0x100) = 1;
    table.access(0x108) = 2;
    table.access(0x100) = 11; // touch A: B becomes LRU
    table.access(0x110) = 3;  // evicts B (0x108)
    EXPECT_EQ(table.evictions(), 1u);
    EXPECT_NE(table.find(0x100), nullptr);
    EXPECT_EQ(table.find(0x108), nullptr);
    EXPECT_NE(table.find(0x110), nullptr);
}

TEST(BtbTable, EvictedEntryRestartsCold)
{
    BtbTable<int> table(BtbConfig::finite(1, 1));
    table.access(0x100) = 42;
    table.access(0x108) = 7;  // evicts 0x100
    EXPECT_EQ(table.access(0x100), 0); // default-constructed again
}

TEST(LoopPredictorBtb, PerfectMatchesDefaultExactly)
{
    auto trace = workload::loopTrace(0x100, 7, 200);
    LoopPredictor implicit_perfect;
    LoopPredictor explicit_perfect(BtbConfig::perfect());
    auto a = sim::run(trace, implicit_perfect);
    auto b = sim::run(trace, explicit_perfect);
    EXPECT_EQ(a.correct, b.correct);
}

TEST(LoopPredictorBtb, LargeFiniteBtbIsAsGoodAsPerfect)
{
    auto a = workload::loopTrace(0x100, 5, 200);
    auto b = workload::loopTrace(0x200, 9, 200);
    auto trace = workload::interleave({a, b});
    LoopPredictor perfect;
    LoopPredictor finite(BtbConfig::finite(8, 4)); // 1024 entries
    auto rp = sim::run(trace, perfect);
    auto rf = sim::run(trace, finite);
    EXPECT_EQ(rp.correct, rf.correct);
    EXPECT_EQ(finite.btbEvictions(), 0u);
}

TEST(LoopPredictorBtb, ThrashingBtbDegradesAccuracy)
{
    // Two loop branches forced into the same single-entry set: every
    // access evicts the other branch's trip state, so the finite
    // predictor keeps relearning while the perfect one is exact.
    auto a = workload::loopTrace(0x100, 5, 300);
    auto b = workload::loopTrace(0x108, 9, 300);
    auto trace = workload::interleave({a, b});

    LoopPredictor perfect;
    LoopPredictor tiny(BtbConfig::finite(1, 1));
    auto rp = sim::run(trace, perfect);
    auto rt = sim::run(trace, tiny);
    EXPECT_GT(tiny.btbEvictions(), 100u);
    EXPECT_GT(rp.accuracyPercent(), rt.accuracyPercent() + 5.0);
}

TEST(BlockPatternBtb, FiniteBtbMatchesPerfectWithoutPressure)
{
    auto trace = workload::blockPatternTrace(0x100, 6, 3, 100);
    BlockPatternPredictor perfect;
    BlockPatternPredictor finite(BtbConfig::finite(6, 2));
    auto rp = sim::run(trace, perfect);
    auto rf = sim::run(trace, finite);
    EXPECT_EQ(rp.correct, rf.correct);
}

TEST(BlockPatternBtb, NamesReflectGeometry)
{
    EXPECT_EQ(BlockPatternPredictor().name(), "block-pattern");
    EXPECT_EQ(BlockPatternPredictor(BtbConfig::finite(4, 2)).name(),
              "block-pattern(btb=16x2)");
    EXPECT_EQ(LoopPredictor(BtbConfig::finite(4, 2)).name(),
              "loop(btb=16x2)");
}

} // namespace
} // namespace copra::predictor
