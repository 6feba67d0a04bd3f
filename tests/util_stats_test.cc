/**
 * @file
 * Unit tests for weighted percentiles and table formatting.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "util/percentiles.hpp"
#include "util/table.hpp"

namespace copra {
namespace {

TEST(WeightedPercentiles, UnweightedMedian)
{
    WeightedPercentiles wp;
    for (int v : {1, 2, 3, 4, 5})
        wp.add(v, 1);
    EXPECT_DOUBLE_EQ(wp.percentile(50), 3.0);
    EXPECT_DOUBLE_EQ(wp.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(wp.percentile(100), 5.0);
}

TEST(WeightedPercentiles, WeightShiftsPercentiles)
{
    WeightedPercentiles wp;
    wp.add(0.0, 90);
    wp.add(1.0, 10);
    EXPECT_DOUBLE_EQ(wp.percentile(50), 0.0);
    EXPECT_DOUBLE_EQ(wp.percentile(89), 0.0);
    EXPECT_DOUBLE_EQ(wp.percentile(95), 1.0);
}

TEST(WeightedPercentiles, ZeroWeightIgnored)
{
    WeightedPercentiles wp;
    wp.add(5.0, 0);
    wp.add(1.0, 1);
    EXPECT_EQ(wp.totalWeight(), 1u);
    EXPECT_DOUBLE_EQ(wp.percentile(100), 1.0);
}

TEST(WeightedPercentiles, CurveIsMonotoneNonDecreasing)
{
    WeightedPercentiles wp;
    wp.add(-7.0, 5);
    wp.add(0.0, 80);
    wp.add(10.4, 15);
    auto curve = wp.curve(5.0);
    ASSERT_EQ(curve.size(), 21u);
    for (size_t i = 1; i < curve.size(); ++i)
        EXPECT_GE(curve[i].second, curve[i - 1].second);
    EXPECT_DOUBLE_EQ(curve.front().second, -7.0);
    EXPECT_DOUBLE_EQ(curve.back().second, 10.4);
}

TEST(Table, AlignsColumns)
{
    Table t({"a", "long-header"});
    t.row().cell("x").cell(uint64_t{7});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("a"), std::string::npos);
    EXPECT_NE(out.find("long-header"), std::string::npos);
    EXPECT_NE(out.find("x"), std::string::npos);
    EXPECT_NE(out.find("7"), std::string::npos);
    // Header separator line present.
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, FixedPrecisionCells)
{
    Table t({"v"});
    t.row().cell(3.14159, 2);
    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("3.14"), std::string::npos);
    EXPECT_EQ(os.str().find("3.142"), std::string::npos);
}

TEST(Table, CsvEscapesSpecialCharacters)
{
    Table t({"name", "note"});
    t.row().cell("plain").cell("has,comma");
    t.row().cell("q\"uote").cell("line\nbreak");
    std::ostringstream os;
    t.printCsv(os);
    std::string out = os.str();
    EXPECT_NE(out.find("\"has,comma\""), std::string::npos);
    EXPECT_NE(out.find("\"q\"\"uote\""), std::string::npos);
}

TEST(Table, RowAndColumnCounts)
{
    Table t({"a", "b"});
    EXPECT_EQ(t.columns(), 2u);
    EXPECT_EQ(t.rows(), 0u);
    t.row().cell("1").cell("2");
    EXPECT_EQ(t.rows(), 1u);
}

TEST(FormatHelpers, FixedAndPercent)
{
    EXPECT_EQ(formatFixed(1.005, 2), "1.00");
    EXPECT_EQ(formatFixed(2.5, 0), "2");
    EXPECT_EQ(formatPercent(1, 2), "50.00");
    EXPECT_EQ(formatPercent(0, 0), "n/a");
    EXPECT_EQ(formatPercent(999, 1000, 1), "99.9");
}

} // namespace
} // namespace copra
