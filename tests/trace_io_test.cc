/**
 * @file
 * Unit tests for binary and text trace serialization.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "trace/ingest.hpp"
#include "trace/trace_io.hpp"
#include "trace_bytes.hpp"
#include "workload/patterns.hpp"

namespace copra::trace {
namespace {

using test_support::binaryBytes;
using test_support::loadBytes;

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
    Trace loaded = loadBytes(binaryBytes(original));

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
    Trace loaded = loadBytes(binaryBytes(empty));
    EXPECT_EQ(loaded.name(), "nothing");
    EXPECT_TRUE(loaded.empty());
}

TEST(TraceIoBinary, LargeGeneratedTraceRoundTrips)
{
    Trace original = workload::biasedTrace(0x400, 0.7, 5000, 42);
    Trace loaded = loadBytes(binaryBytes(original));
    ASSERT_EQ(loaded.size(), original.size());
    for (size_t i = 0; i < original.size(); i += 97)
        EXPECT_EQ(loaded[i], original[i]);
}

TEST(TraceIoBinary, BadMagicThrows)
{
    EXPECT_THROW(loadBytes("NOTATRACE-AT-ALL............"),
                 std::runtime_error);
}

TEST(TraceIoBinary, TruncatedInputThrows)
{
    std::string bytes = binaryBytes(sampleTrace());
    EXPECT_THROW(loadBytes(bytes.substr(0, bytes.size() - 5)),
                 std::runtime_error);
}

TEST(TraceIoBinary, FutureVersionRejected)
{
    std::string bytes = binaryBytes(Trace("v", 0));
    bytes[8] = 99; // bump the version field
    EXPECT_THROW(loadBytes(bytes), std::runtime_error);
}

TEST(TraceIoBinary, InvalidKindRejected)
{
    Trace original;
    original.append({0x100, 0x104, BranchKind::Conditional, true});
    std::string bytes = binaryBytes(original);
    bytes[imageLayout(0, 1, 1).siteKind] = 42; // corrupt the site kind
    EXPECT_THROW(loadBytes(bytes), std::runtime_error);
}

TEST(TraceIoText, WriteTextIngestsBackRecordExact)
{
    Trace original = sampleTrace();
    std::stringstream buf;
    writeText(original, buf);
    IngestOptions options;
    options.format = IngestFormat::Text;
    IngestReport report;
    Trace loaded = ingestStream(buf, options, report);

    EXPECT_EQ(loaded.name(), "sample");
    EXPECT_EQ(loaded.seed(), 0xdeadbeefu);
    EXPECT_EQ(report.normalizedTaken, 0u);
    ASSERT_EQ(loaded.size(), original.size());
    for (size_t i = 0; i < original.size(); ++i)
        EXPECT_EQ(loaded[i], original[i]) << "record " << i;
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
