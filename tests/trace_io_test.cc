/**
 * @file
 * Unit tests for binary and text trace serialization.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "trace/trace_io.hpp"
#include "workload/patterns.hpp"

namespace copra::trace {
namespace {

Trace
sampleTrace()
{
    Trace t("sample", 0xdeadbeef);
    t.append({0x100, 0x180, BranchKind::Conditional, true});
    t.append({0x104, 0x200, BranchKind::Call, true});
    t.append({0x204, 0x108, BranchKind::Return, true});
    t.append({0x108, 0x090, BranchKind::Conditional, false});
    t.append({0x10c, 0x050, BranchKind::Jump, true});
    return t;
}

TEST(TraceIoBinary, RoundTripsExactly)
{
    Trace original = sampleTrace();
    std::stringstream buf;
    writeBinary(original, buf);
    Trace loaded = readBinary(buf);

    EXPECT_EQ(loaded.name(), original.name());
    EXPECT_EQ(loaded.seed(), original.seed());
    ASSERT_EQ(loaded.size(), original.size());
    EXPECT_EQ(loaded.conditionalCount(), original.conditionalCount());
    for (size_t i = 0; i < original.size(); ++i)
        EXPECT_EQ(loaded[i], original[i]) << "record " << i;
}

TEST(TraceIoBinary, EmptyTraceRoundTrips)
{
    Trace empty("nothing", 1);
    std::stringstream buf;
    writeBinary(empty, buf);
    Trace loaded = readBinary(buf);
    EXPECT_EQ(loaded.name(), "nothing");
    EXPECT_TRUE(loaded.empty());
}

TEST(TraceIoBinary, LargeGeneratedTraceRoundTrips)
{
    Trace original = workload::biasedTrace(0x400, 0.7, 5000, 42);
    std::stringstream buf;
    writeBinary(original, buf);
    Trace loaded = readBinary(buf);
    ASSERT_EQ(loaded.size(), original.size());
    for (size_t i = 0; i < original.size(); i += 97)
        EXPECT_EQ(loaded[i], original[i]);
}

TEST(TraceIoBinary, BadMagicThrows)
{
    std::stringstream buf("NOTATRACE-AT-ALL............");
    EXPECT_THROW(readBinary(buf), std::runtime_error);
}

TEST(TraceIoBinary, TruncatedInputThrows)
{
    Trace original = sampleTrace();
    std::stringstream buf;
    writeBinary(original, buf);
    std::string bytes = buf.str();
    std::stringstream cut(bytes.substr(0, bytes.size() - 5));
    EXPECT_THROW(readBinary(cut), std::runtime_error);
}

TEST(TraceIoBinary, FutureVersionRejected)
{
    Trace original("v", 0);
    std::stringstream buf;
    writeBinary(original, buf);
    std::string bytes = buf.str();
    bytes[8] = 99; // bump the version field
    std::stringstream bad(bytes);
    EXPECT_THROW(readBinary(bad), std::runtime_error);
}

TEST(TraceIoBinary, InvalidKindRejected)
{
    Trace original;
    original.append({0x100, 0x104, BranchKind::Conditional, true});
    std::stringstream buf;
    writeBinary(original, buf);
    std::string bytes = buf.str();
    bytes[imageLayout(0, 1, 1).kind] = 42; // corrupt the kind byte
    std::stringstream bad(bytes);
    EXPECT_THROW(readBinary(bad), std::runtime_error);
}

TEST(TraceIoText, RoundTripsRecordsAndHeader)
{
    Trace original = sampleTrace();
    std::stringstream buf;
    writeText(original, buf);
    Trace loaded = readText(buf);

    EXPECT_EQ(loaded.name(), "sample");
    EXPECT_EQ(loaded.seed(), 0xdeadbeefu);
    ASSERT_EQ(loaded.size(), original.size());
    for (size_t i = 0; i < original.size(); ++i)
        EXPECT_EQ(loaded[i], original[i]) << "record " << i;
}

TEST(TraceIoText, IgnoresBlankAndCommentLines)
{
    std::stringstream in(
        "# name hand\n"
        "\n"
        "# a free-form comment\n"
        "cond 0x100 0x180 T\n"
        "\n"
        "cond 0x104 0x080 N\n");
    Trace t = readText(in);
    EXPECT_EQ(t.name(), "hand");
    ASSERT_EQ(t.size(), 2u);
    EXPECT_TRUE(t[0].taken);
    EXPECT_FALSE(t[1].taken);
    EXPECT_TRUE(t[1].isBackward());
}

TEST(TraceIoText, MalformedLineThrows)
{
    std::stringstream in("cond 0x100\n");
    EXPECT_THROW(readText(in), std::runtime_error);
}

TEST(TraceIoText, UnknownKindThrows)
{
    std::stringstream in("sproing 0x100 0x104 T\n");
    EXPECT_THROW(readText(in), std::runtime_error);
}

TEST(TraceIoText, BadOutcomeThrows)
{
    std::stringstream in("cond 0x100 0x104 X\n");
    EXPECT_THROW(readText(in), std::runtime_error);
}

TEST(TraceIoText, BadAddressThrowsWithLineNumber)
{
    // Not a number, trailing junk, and a sign: each must be rejected
    // whole, never read as a prefix or wrapped.
    for (const char *line :
         {"cond zz 0x104 T", "cond 0x10zz 0x104 T", "cond -4 0x104 T",
          "cond 0x100 0x104zz T"}) {
        std::stringstream in(std::string("cond 0x100 0x104 T\n") + line +
                             "\n");
        try {
            readText(in);
            ADD_FAILURE() << "accepted: " << line;
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("line 2"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(TraceIoFile, SaveAndLoadByPath)
{
    std::string path = ::testing::TempDir() + "/copra_io_test.trc";
    Trace original = sampleTrace();
    saveBinary(original, path);
    Trace loaded = loadBinary(path);
    ASSERT_EQ(loaded.size(), original.size());
    EXPECT_EQ(loaded[0], original[0]);
    std::remove(path.c_str());
}

TEST(TraceIoFile, MissingFileThrows)
{
    EXPECT_THROW(loadBinary("/nonexistent/dir/trace.trc"),
                 std::runtime_error);
}

} // namespace
} // namespace copra::trace
