/**
 * @file
 * Unit tests for the command line option parser.
 */

#include <climits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/cli.hpp"

namespace copra {
namespace {

TEST(OptionParser, ParsesEveryType)
{
    int64_t i = 0;
    uint64_t u = 0;
    uint64_t narrow = 0;
    double d = 0.0;
    std::string s;
    bool f = false;

    OptionParser p("test");
    p.addInt("int", &i, "");
    p.addUint("uint", &u, "");
    p.addUint("narrow", &narrow, "", UINT_MAX);
    p.addDouble("double", &d, "");
    p.addString("string", &s, "");
    p.addFlag("flag", &f, "");

    const char *argv[] = {"prog", "--int", "-5", "--uint", "7",
                          "--narrow", "4294967295", "--double", "2.5",
                          "--string", "hello", "--flag"};
    ASSERT_TRUE(p.parse(12, argv));
    EXPECT_EQ(i, -5);
    EXPECT_EQ(u, 7u);
    EXPECT_EQ(narrow, uint64_t(UINT_MAX)); // a bound is inclusive
    EXPECT_DOUBLE_EQ(d, 2.5);
    EXPECT_EQ(s, "hello");
    EXPECT_TRUE(f);
}

TEST(OptionParser, EqualsSyntax)
{
    uint64_t u = 0;
    bool f = true;
    OptionParser p("test");
    p.addUint("n", &u, "");
    p.addFlag("f", &f, "");
    const char *argv[] = {"prog", "--n=123", "--f=false"};
    ASSERT_TRUE(p.parse(3, argv));
    EXPECT_EQ(u, 123u);
    EXPECT_FALSE(f);
}

TEST(OptionParser, DefaultsSurviveWhenUnset)
{
    uint64_t u = 99;
    OptionParser p("test");
    p.addUint("n", &u, "");
    const char *argv[] = {"prog"};
    ASSERT_TRUE(p.parse(1, argv));
    EXPECT_EQ(u, 99u);
}

TEST(OptionParser, HelpReturnsFalse)
{
    OptionParser p("test");
    const char *argv[] = {"prog", "--help"};
    EXPECT_FALSE(p.parse(2, argv));
}

TEST(OptionParserDeath, UnknownOptionIsFatal)
{
    OptionParser p("test");
    const char *argv[] = {"prog", "--bogus", "1"};
    EXPECT_EXIT(p.parse(3, argv), ::testing::ExitedWithCode(1),
                "unknown option");
}

TEST(OptionParserDeath, MissingValueIsFatal)
{
    uint64_t u = 0;
    OptionParser p("test");
    p.addUint("n", &u, "");
    const char *argv[] = {"prog", "--n"};
    EXPECT_EXIT(p.parse(2, argv), ::testing::ExitedWithCode(1),
                "expects a value");
}

TEST(OptionParserDeath, MalformedNumberIsFatal)
{
    uint64_t u = 0;
    uint64_t narrow = 0;
    int64_t i = 0;
    double d = 0.0;
    OptionParser p("test");
    p.addUint("n", &u, "");
    p.addUint("depth", &narrow, "", UINT_MAX);
    p.addInt("i", &i, "");
    p.addDouble("d", &d, "");
    // Each value either has trailing junk, a sign an unsigned option
    // cannot carry, or overflows its target; none may parse partially.
    const std::vector<std::pair<const char *, const char *>> bad = {
        {"--n", "xyz"},   {"--n", "-1"},    {"--n", "12abc"},
        {"--n", "3.9"},   {"--n", ""},      {"--i", "3.9"},
        {"--i", "7x"},    {"--d", "1.5q"},  {"--depth", "4294967312"},
        {"--n", "99999999999999999999"},
    };
    for (const auto &[opt, value] : bad) {
        const char *argv[] = {"prog", opt, value};
        EXPECT_EXIT(p.parse(3, argv), ::testing::ExitedWithCode(1),
                    "invalid value")
            << opt << ' ' << value;
    }
}


TEST(OptionParserDeath, PositionalArgumentRejected)
{
    OptionParser p("test");
    const char *argv[] = {"prog", "stray"};
    EXPECT_EXIT(p.parse(2, argv), ::testing::ExitedWithCode(1),
                "unexpected argument");
}

} // namespace
} // namespace copra
