/**
 * @file
 * Unit tests for the foreign-trace ingestion frontend (trace/ingest.hpp):
 * the versioned text grammar, the CSV dialect (including out-of-order
 * index normalization), the CBP-style binary reader with its corruption
 * and endianness tripwires, and the ingest → cache-v3 → SoA round trip.
 * Also pins the ledger's packed-tally flush across the 2^21 field
 * boundary, since ingested foreign traces are the first consumers long
 * enough to cross it with a single static branch.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "predictor/factory.hpp"
#include "sim/driver.hpp"
#include "trace/ingest.hpp"
#include "trace/trace_io.hpp"

namespace copra::trace {
namespace {

Trace
ingestString(const std::string &text, IngestReport &report,
             IngestOptions options = {})
{
    std::istringstream in(text);
    return ingestStream(in, options, report);
}

/** Little-endian CBP-style binary image builder for the reader tests. */
struct CbpImage
{
    std::string bytes;

    explicit CbpImage(uint64_t count, uint32_t version = 1,
                      uint32_t flags = 0, const char *magic = "CBPTRACE")
    {
        bytes.assign(magic, magic + 8);
        appendLe32(version);
        appendLe32(flags);
        appendLe64(count);
    }

    void
    appendLe32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            bytes.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }

    void
    appendLe64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            bytes.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }

    void
    record(uint64_t pc, uint64_t target, uint8_t type, uint8_t taken)
    {
        appendLe64(pc);
        appendLe64(target);
        bytes.push_back(static_cast<char>(type));
        bytes.push_back(static_cast<char>(taken));
    }
};

Trace
ingestCbp(const CbpImage &image, IngestReport &report)
{
    IngestOptions options;
    options.format = IngestFormat::Cbp;
    return ingestString(image.bytes, report, options);
}

TEST(IngestText, ParsesVersionedGrammar)
{
    IngestReport report;
    Trace t = ingestString("# copra-branch-trace v1\n"
                           "# a comment line\n"
                           "# name foreign\n"
                           "# seed 42\n"
                           "\n"
                           "cond 0x100 0x180 T\n"
                           "cond 0x104 0x200 N\r\n" // CRLF capture
                           "jump 0x108 0x100 T\n"
                           "call 0x10c 0x400 1\n"
                           "cond 0x404 0x420 true\n"
                           "cond 0x408 0x430 false\n"
                           "ret 0x40c 0x110 T\n",
                           report);
    EXPECT_EQ(t.name(), "foreign");
    EXPECT_EQ(t.seed(), 42u);
    ASSERT_EQ(t.size(), 7u);
    EXPECT_EQ(t.conditionalCount(), 4u);
    EXPECT_EQ(report.format, IngestFormat::Text);
    EXPECT_EQ(report.records, 7u);
    EXPECT_EQ(report.conditionals, 4u);
    EXPECT_EQ(report.normalizedTaken, 0u);
    EXPECT_TRUE(report.warnings.empty());
    EXPECT_EQ(t[0], (BranchRecord{0x100, 0x180,
                                  BranchKind::Conditional, true}));
    EXPECT_EQ(t[1], (BranchRecord{0x104, 0x200,
                                  BranchKind::Conditional, false}));
    EXPECT_EQ(t[2], (BranchRecord{0x108, 0x100, BranchKind::Jump, true}));
    EXPECT_EQ(t[4].taken, true);
    EXPECT_EQ(t[5].taken, false);
}

TEST(IngestText, MissingVersionDirectiveWarns)
{
    IngestReport report;
    Trace t = ingestString("cond 0x100 0x180 T\n", report);
    EXPECT_EQ(t.size(), 1u);
    ASSERT_FALSE(report.warnings.empty());
    EXPECT_NE(report.warnings.front().find("copra-branch-trace"),
              std::string::npos);
}

TEST(IngestText, FutureVersionIsRejected)
{
    IngestReport report;
    EXPECT_THROW(ingestString("# copra-branch-trace v2\n"
                              "cond 0x100 0x180 T\n",
                              report),
                 std::runtime_error);
}

TEST(IngestText, MalformedLinesAreHardErrors)
{
    IngestReport report;
    // Trailing field.
    EXPECT_THROW(ingestString("cond 0x100 0x180 T extra\n", report),
                 std::runtime_error);
    // Unknown kind.
    EXPECT_THROW(ingestString("branch 0x100 0x180 T\n", report),
                 std::runtime_error);
    // Unparseable address.
    EXPECT_THROW(ingestString("cond 0xzz 0x180 T\n", report),
                 std::runtime_error);
    // Negative address (stoull alone would wrap it).
    EXPECT_THROW(ingestString("cond -4 0x180 T\n", report),
                 std::runtime_error);
    EXPECT_THROW(ingestString("kind,pc,target,taken\ncond,0x100,-8,1\n",
                              report),
                 std::runtime_error);
    // Missing outcome.
    EXPECT_THROW(ingestString("cond 0x100 0x180\n", report),
                 std::runtime_error);
    // Unknown outcome spelling.
    EXPECT_THROW(ingestString("cond 0x100 0x180 yes\n", report),
                 std::runtime_error);
}

TEST(IngestText, NormalizesUnconditionalOutcomes)
{
    // Some producers emit N for never-taken-encoded unconditionals; the
    // normalizer coerces them taken and counts the repairs.
    IngestReport report;
    Trace t = ingestString("jump 0x100 0x200 N\n"
                           "cond 0x200 0x220 N\n"
                           "ret 0x204 0x104 0\n",
                           report);
    EXPECT_TRUE(t[0].taken);
    EXPECT_FALSE(t[1].taken); // conditionals are left alone
    EXPECT_TRUE(t[2].taken);
    EXPECT_EQ(report.normalizedTaken, 2u);
}

TEST(IngestText, OptionsOverrideDirectives)
{
    IngestOptions options;
    options.name = "renamed";
    options.seed = 7;
    options.hasSeed = true;
    IngestReport report;
    Trace t = ingestString("# name original\n"
                           "# seed 42\n"
                           "cond 0x100 0x180 T\n",
                           report, options);
    EXPECT_EQ(t.name(), "renamed");
    EXPECT_EQ(t.seed(), 7u);
}

TEST(IngestText, ZeroConditionalTraceWarns)
{
    IngestReport report;
    Trace t = ingestString("jump 0x100 0x200 T\n"
                           "jump 0x200 0x100 T\n",
                           report);
    EXPECT_EQ(t.conditionalCount(), 0u);
    bool warned = false;
    for (const std::string &w : report.warnings)
        warned |= w.find("conditional") != std::string::npos;
    EXPECT_TRUE(warned);
}

TEST(IngestCsv, ParsesWithAndWithoutHeader)
{
    IngestReport report;
    Trace with_header = ingestString("kind,pc,target,taken\n"
                                     "cond,0x100,0x180,T\n"
                                     "jump,0x108,0x100,T\n",
                                     report);
    EXPECT_EQ(report.format, IngestFormat::Csv);
    ASSERT_EQ(with_header.size(), 2u);
    EXPECT_EQ(with_header[0].pc, 0x100u);

    Trace headerless = ingestString("cond, 0x100, 0x180, T\n"
                                    "jump, 0x108, 0x100, T\n",
                                    report);
    ASSERT_EQ(headerless.size(), 2u);
    EXPECT_EQ(headerless[1].kind, BranchKind::Jump);
}

TEST(IngestCsv, SortsOutOfOrderIndices)
{
    IngestReport report;
    Trace t = ingestString("index,kind,pc,target,taken\n"
                           "2,cond,0x300,0x380,T\n"
                           "0,cond,0x100,0x180,N\n"
                           "1,cond,0x200,0x280,T\n",
                           report);
    ASSERT_EQ(t.size(), 3u);
    EXPECT_EQ(t[0].pc, 0x100u);
    EXPECT_EQ(t[1].pc, 0x200u);
    EXPECT_EQ(t[2].pc, 0x300u);
    // All three rows sit away from their arrival position.
    EXPECT_EQ(report.reordered, 3u);
    EXPECT_FALSE(report.warnings.empty());
}

TEST(IngestCsv, DuplicateIndexIsAHardError)
{
    IngestReport report;
    EXPECT_THROW(ingestString("index,kind,pc,target,taken\n"
                              "0,cond,0x100,0x180,T\n"
                              "0,cond,0x200,0x280,T\n",
                              report),
                 std::runtime_error);
}

TEST(IngestCbp, DecodesAndFoldsIndirects)
{
    CbpImage image(5);
    image.record(0x100, 0x180, 0, 1); // conditional taken
    image.record(0x104, 0x200, 1, 1); // direct jump
    image.record(0x108, 0x300, 2, 1); // indirect jump -> Jump
    image.record(0x10c, 0x400, 3, 1); // call
    image.record(0x110, 0x500, 4, 1); // indirect call -> Call
    IngestReport report;
    Trace t = ingestCbp(image, report);
    ASSERT_EQ(t.size(), 5u);
    EXPECT_EQ(report.format, IngestFormat::Cbp);
    EXPECT_EQ(t[0].kind, BranchKind::Conditional);
    EXPECT_EQ(t[1].kind, BranchKind::Jump);
    EXPECT_EQ(t[2].kind, BranchKind::Jump);
    EXPECT_EQ(t[3].kind, BranchKind::Call);
    EXPECT_EQ(t[4].kind, BranchKind::Call);
    EXPECT_EQ(t.conditionalCount(), 1u);
}

TEST(IngestCbp, RejectsGarbageMagic)
{
    CbpImage image(1, 1, 0, "NOTATRCE");
    image.record(0x100, 0x180, 0, 1);
    IngestReport report;
    EXPECT_THROW(ingestCbp(image, report), std::runtime_error);
}

TEST(IngestCbp, RejectsTruncatedPayload)
{
    CbpImage image(2);
    image.record(0x100, 0x180, 0, 1); // header promises 2, payload has 1
    IngestReport report;
    EXPECT_THROW(ingestCbp(image, report), std::runtime_error);
}

TEST(IngestCbp, RejectsTruncatedHeader)
{
    CbpImage image(0);
    image.bytes.resize(10);
    IngestReport report;
    EXPECT_THROW(ingestCbp(image, report), std::runtime_error);
}

TEST(IngestCbp, ByteSwappedCountTripsSizeCheck)
{
    // A big-endian producer writes count=1 as 0x0100000000000000;
    // count*18 then disagrees wildly with the payload size, so the
    // size check doubles as the endianness tripwire.
    CbpImage image(1);
    image.record(0x100, 0x180, 0, 1);
    std::string &b = image.bytes;
    for (int i = 0; i < 4; ++i)
        std::swap(b[16 + i], b[23 - i]);
    IngestReport report;
    EXPECT_THROW(ingestCbp(image, report), std::runtime_error);
}

TEST(IngestCbp, RejectsBadTypeAndTakenBytes)
{
    {
        CbpImage image(1);
        image.record(0x100, 0x180, 9, 1); // type out of range
        IngestReport report;
        EXPECT_THROW(ingestCbp(image, report), std::runtime_error);
    }
    {
        CbpImage image(1);
        image.record(0x100, 0x180, 0, 2); // taken byte must be 0/1
        IngestReport report;
        EXPECT_THROW(ingestCbp(image, report), std::runtime_error);
    }
}

TEST(IngestSniff, AutoDetectsAllThreeFormats)
{
    IngestReport report;
    ingestString("cond 0x100 0x180 T\n", report);
    EXPECT_EQ(report.format, IngestFormat::Text);
    ingestString("kind,pc,target,taken\ncond,0x100,0x180,T\n", report);
    EXPECT_EQ(report.format, IngestFormat::Csv);
    CbpImage image(1);
    image.record(0x100, 0x180, 0, 1);
    std::istringstream in(image.bytes);
    IngestOptions options; // format = Auto
    ingestStream(in, options, report);
    EXPECT_EQ(report.format, IngestFormat::Cbp);
}

TEST(IngestRoundTrip, SurvivesCacheV2AndSoA)
{
    IngestReport report;
    std::ostringstream src;
    src << "# copra-branch-trace v1\n# name rt\n# seed 9\n";
    for (int i = 0; i < 500; ++i) {
        src << "cond 0x" << std::hex << (0x1000 + 8 * (i % 7)) << " 0x"
            << (0x2000 + 8 * (i % 7)) << std::dec << ' '
            << (i % 3 ? 'T' : 'N') << '\n';
        if (i % 11 == 0)
            src << "jump 0x3000 0x1000 T\n";
    }
    Trace ingested = ingestString(src.str(), report);

    std::stringstream buf;
    writeBinary(ingested, buf);
    Trace loaded = readBinary(buf);
    ASSERT_EQ(loaded.size(), ingested.size());
    for (size_t i = 0; i < ingested.size(); ++i)
        EXPECT_EQ(loaded[i], ingested[i]) << "record " << i;

    const SoABlocks &sa = ingested.soa();
    const SoABlocks &sb = loaded.soa();
    ASSERT_EQ(sa.size(), sb.size());
    EXPECT_EQ(sa.conditionalCount(), sb.conditionalCount());
    EXPECT_EQ(0, std::memcmp(sa.pc(), sb.pc(),
                             sa.size() * sizeof(uint64_t)));
    EXPECT_EQ(0, std::memcmp(sa.taken(), sb.taken(), sa.size()));
    EXPECT_EQ(0, std::memcmp(sa.kind(), sb.kind(), sa.size()));
}

TEST(IngestLedger, PackedTallyFlushSurvivesTwoPow21Executions)
{
    // The driver packs per-branch execs/taken/correct into 21-bit
    // fields flushed every 2^20 branches. A single static branch
    // executed more than 2^21 times would overflow a field without the
    // flush; long ingested traces are the realistic trigger, so pin
    // exact accounting across that boundary.
    constexpr uint64_t kExecs = (uint64_t(1) << 21) + 5;
    Trace t("flush-boundary", 1);
    for (uint64_t i = 0; i < kExecs; ++i)
        t.append({0x100, 0x180, BranchKind::Conditional, (i & 1) != 0});

    auto pred = predictor::makePredictor("bimodal");
    sim::Ledger ledger;
    sim::RunResult result = sim::run(t, *pred, &ledger);
    EXPECT_EQ(result.dynamicBranches, kExecs);
    sim::BranchTally tally = ledger.branch(0x100);
    EXPECT_EQ(tally.execs, kExecs);
    EXPECT_EQ(tally.taken, kExecs / 2);
    EXPECT_EQ(ledger.dynamic(), kExecs);
    EXPECT_EQ(ledger.correct(), result.correct);
}

} // namespace
} // namespace copra::trace
