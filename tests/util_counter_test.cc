/**
 * @file
 * Unit tests for saturating counters and history registers.
 */

#include <gtest/gtest.h>

#include "util/sat_counter.hpp"
#include "util/shift_register.hpp"

namespace copra {
namespace {

TEST(SatCounter, DefaultIsTwoBitWeaklyNotTaken)
{
    SatCounter c;
    EXPECT_EQ(c.bits(), 2u);
    EXPECT_EQ(c.value(), 1u);
    EXPECT_EQ(c.maxValue(), 3u);
    EXPECT_FALSE(c.taken());
}

TEST(SatCounter, IncrementSaturatesAtMax)
{
    SatCounter c(2, 2);
    c.increment();
    EXPECT_EQ(c.value(), 3u);
    c.increment();
    EXPECT_EQ(c.value(), 3u);
    EXPECT_TRUE(c.saturated());
}

TEST(SatCounter, DecrementSaturatesAtZero)
{
    SatCounter c(2, 1);
    c.decrement();
    EXPECT_EQ(c.value(), 0u);
    c.decrement();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_TRUE(c.saturated());
}

TEST(SatCounter, TakenThresholdIsMsb)
{
    SatCounter c(3, 0); // 3-bit counter: taken at >= 4
    EXPECT_FALSE(c.taken());
    c.set(3);
    EXPECT_FALSE(c.taken());
    c.set(4);
    EXPECT_TRUE(c.taken());
    c.set(7);
    EXPECT_TRUE(c.taken());
}

TEST(SatCounter, UpdateMovesTowardOutcome)
{
    SatCounter c(2, 1);
    c.update(true);
    EXPECT_EQ(c.value(), 2u);
    c.update(false);
    c.update(false);
    EXPECT_EQ(c.value(), 0u);
}

TEST(SatCounter, EqualityComparesWidthAndValue)
{
    EXPECT_EQ(SatCounter(2, 1), SatCounter(2, 1));
    EXPECT_FALSE(SatCounter(2, 1) == SatCounter(2, 2));
    EXPECT_FALSE(SatCounter(3, 1) == SatCounter(2, 1));
}

class SatCounterWidth : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SatCounterWidth, FullRangeWalk)
{
    unsigned bits = GetParam();
    SatCounter c(bits, 0);
    unsigned max = (1u << bits) - 1;
    for (unsigned i = 0; i < max; ++i)
        c.increment();
    EXPECT_EQ(c.value(), max);
    c.increment();
    EXPECT_EQ(c.value(), max);
    for (unsigned i = 0; i < max; ++i)
        c.decrement();
    EXPECT_EQ(c.value(), 0u);
    // The counter predicts taken for exactly the upper half of its range.
    unsigned taken_states = 0;
    for (unsigned v = 0; v <= max; ++v) {
        c.set(static_cast<uint8_t>(v));
        if (c.taken())
            ++taken_states;
    }
    EXPECT_EQ(taken_states, (max + 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(Widths, SatCounterWidth,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 8u));

TEST(Counter2, StateMachineMatchesSmith1981)
{
    Counter2 c; // weakly not taken
    EXPECT_EQ(c.v, 1);
    EXPECT_FALSE(c.taken());
    c.update(true);
    EXPECT_TRUE(c.taken()); // weakly taken
    c.update(true);
    EXPECT_EQ(c.v, 3); // strongly taken
    c.update(true);
    EXPECT_EQ(c.v, 3); // saturates
    c.update(false);
    EXPECT_TRUE(c.taken()); // hysteresis: still predicts taken
    c.update(false);
    EXPECT_FALSE(c.taken());
    c.update(false);
    c.update(false);
    EXPECT_EQ(c.v, 0); // saturates at zero
}

TEST(HistoryRegister, PushShiftsNewestIntoBitZero)
{
    HistoryRegister h(4);
    h.push(true);
    h.push(false);
    h.push(true);
    // Sequence T N T => bits (oldest..newest) 1,0,1 => value 0b101.
    EXPECT_EQ(h.value(), 0b101u);
    EXPECT_TRUE(h.outcome(0));
    EXPECT_FALSE(h.outcome(1));
    EXPECT_TRUE(h.outcome(2));
}

TEST(HistoryRegister, LengthMasksOldOutcomes)
{
    HistoryRegister h(3);
    for (int i = 0; i < 10; ++i)
        h.push(true);
    EXPECT_EQ(h.value(), 0b111u);
    h.push(false);
    EXPECT_EQ(h.value(), 0b110u);
}

TEST(HistoryRegister, SixtyFourBitHistoryWorks)
{
    HistoryRegister h(64);
    for (int i = 0; i < 64; ++i)
        h.push(true);
    EXPECT_EQ(h.value(), ~uint64_t(0));
    h.push(false);
    EXPECT_EQ(h.value(), ~uint64_t(0) << 1);
}

class HistoryLengths : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(HistoryLengths, MaskMatchesLength)
{
    unsigned len = GetParam();
    HistoryRegister h(len);
    for (unsigned i = 0; i < 100; ++i)
        h.push(true);
    if (len >= 64) {
        EXPECT_EQ(h.value(), ~uint64_t(0));
    } else {
        EXPECT_EQ(h.value(), (uint64_t(1) << len) - 1);
    }
}

INSTANTIATE_TEST_SUITE_P(PaperLengths, HistoryLengths,
                         ::testing::Values(1u, 8u, 12u, 16u, 20u, 24u, 28u,
                                           32u, 63u, 64u));

} // namespace
} // namespace copra
