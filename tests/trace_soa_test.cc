/**
 * @file
 * Tests for the column store and the cache-v4 loader: record
 * materialization against the site table over fuzzed traces,
 * conditional-segment, site and static-index invariants, the rejection
 * of truncated / garbage / wrong-version files by the loader (with the
 * trace cache evicting what it cannot read), and the rejection of
 * re-sealed forgeries that only the verification pass can catch.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ranges>

#include "check/fuzz.hpp"
#include "trace/trace.hpp"
#include "trace/trace_cache.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_soa.hpp"
#include "trace_bytes.hpp"

namespace copra::trace {
namespace {

namespace fs = std::filesystem;
using test_support::binaryBytes;
using test_support::v3Bytes;

TEST(TraceSoa, RecordsMaterializeFromTheColumns)
{
    // Property over the adversarial fuzz corpus: operator[], the
    // records() iterator and the site and taken columns agree index
    // for index, site ids first appear in order, and the static index
    // maps every record back to its own pc.
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        Trace t = check::fuzzTrace(seed, 700);
        const SoABlocks &soa = t.soa();
        ASSERT_EQ(soa.size(), t.size()) << "seed " << seed;
        ASSERT_EQ(t.records().size(), t.size());
        size_t i = 0;
        uint32_t next_site = 0;
        for (const BranchRecord &rec : t.records()) {
            ASSERT_LE(soa.site()[i], next_site) << "seed " << seed;
            next_site += soa.site()[i] == next_site ? 1 : 0;
            const Site &site = soa.sites()[soa.site()[i]];
            ASSERT_EQ(site.pc, rec.pc) << "seed " << seed;
            ASSERT_EQ(site.target, rec.target);
            ASSERT_EQ(site.kind, rec.kind);
            ASSERT_EQ(soa.taken()[i] != 0, rec.taken);
            ASSERT_EQ(t[i], rec);
            ASSERT_EQ(soa.staticPcs()[soa.staticIndex(i)], rec.pc);
            ++i;
        }
        EXPECT_EQ(i, t.size());
        EXPECT_EQ(next_site, soa.siteCount()) << "every site is used";
    }
}

TEST(TraceSoa, SegmentsCoverExactlyTheConditionalRuns)
{
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        Trace t = check::fuzzTrace(seed, 500);
        const SoABlocks &soa = t.soa();
        std::vector<uint8_t> covered(t.size(), 0);
        uint64_t in_segments = 0;
        size_t prev_end = 0;
        for (const SoABlocks::Segment &seg : soa.conditionalSegments()) {
            ASSERT_GT(seg.count, 0u);
            ASSERT_GE(seg.begin, prev_end) << "segments must not overlap";
            // Maximality: the records flanking the run are never
            // conditional.
            if (seg.begin > 0) {
                EXPECT_NE(t[seg.begin - 1].kind, BranchKind::Conditional);
            }
            if (seg.begin + seg.count < t.size()) {
                EXPECT_NE(t[seg.begin + seg.count].kind,
                          BranchKind::Conditional);
            }
            for (size_t i = seg.begin; i < seg.begin + seg.count; ++i) {
                EXPECT_EQ(t[i].kind, BranchKind::Conditional);
                covered[i] = 1;
            }
            in_segments += seg.count;
            prev_end = seg.begin + seg.count;
        }
        EXPECT_EQ(in_segments, t.conditionalCount()) << "seed " << seed;
        for (size_t i = 0; i < t.size(); ++i)
            EXPECT_EQ(covered[i] != 0,
                      t[i].kind == BranchKind::Conditional)
                << "seed " << seed << " rec " << i;
    }
}

/** The message loadBinary gives for the file at @p path, or "" if it
 * loads. */
std::string
rejection(const std::string &path)
{
    try {
        loadBinary(path);
        return "";
    } catch (const std::runtime_error &e) {
        return e.what();
    }
}

class MappedLoadTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = fs::path(::testing::TempDir()) /
            ("copra-mmap-" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
        fs::create_directories(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string
    writeFile(const std::string &name, const std::string &bytes)
    {
        std::string path = (dir_ / name).string();
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
        return path;
    }

    /** Serialize @p t in the retired v1 record-interleaved format. */
    std::string
    v1Bytes(const Trace &t)
    {
        std::string out("COPRATRC", 8);
        auto u32 = [&](uint32_t v) {
            for (int i = 0; i < 4; ++i)
                out.push_back(char((v >> (8 * i)) & 0xff));
        };
        auto u64 = [&](uint64_t v) {
            for (int i = 0; i < 8; ++i)
                out.push_back(char((v >> (8 * i)) & 0xff));
        };
        u32(1); // format version
        u64(t.seed());
        u32(static_cast<uint32_t>(t.name().size()));
        out += t.name();
        u64(t.size());
        for (const BranchRecord &rec : t.records()) {
            u64(rec.pc);
            u64(rec.target);
            out.push_back(char(static_cast<uint8_t>(rec.kind)));
            out.push_back(char(rec.taken ? 1 : 0));
        }
        return out;
    }

    fs::path dir_;
};

TEST_F(MappedLoadTest, MapsV4FilesIdenticallyToTheSavedTrace)
{
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        Trace t = check::fuzzTrace(seed, 400);
        std::string path = writeFile("t.trc", binaryBytes(t));
        Trace mapped = loadBinary(path);
        EXPECT_EQ(mapped.name(), t.name());
        EXPECT_EQ(mapped.seed(), t.seed());
        ASSERT_EQ(mapped.size(), t.size());
        for (size_t i = 0; i < mapped.size(); ++i)
            ASSERT_EQ(mapped[i], t[i]) << "seed " << seed;
        EXPECT_EQ(mapped.conditionalCount(), t.conditionalCount());
        ASSERT_TRUE(std::ranges::equal(mapped.soa().staticPcs(),
                                       t.soa().staticPcs()));
        for (size_t i = 0; i < mapped.size(); ++i)
            ASSERT_EQ(mapped.soa().staticIndex(i), t.soa().staticIndex(i));
        EXPECT_EQ(mapped.soa().conditionalSegments().size(),
                  t.soa().conditionalSegments().size());
    }
}

TEST_F(MappedLoadTest, RejectsTruncatedGarbageAndWrongVersionFiles)
{
    Trace t = check::fuzzTrace(2, 200);
    std::string clean = binaryBytes(t);

    // Truncations at every structurally interesting point: mid-magic,
    // mid-header, mid-name, and mid-column.
    for (size_t cut : {size_t(0), size_t(4), size_t(12), size_t(39),
                       size_t(45), clean.size() - 1}) {
        std::string path =
            writeFile("cut.trc", clean.substr(0, cut));
        EXPECT_THROW(loadBinary(path), std::runtime_error)
            << "cut at " << cut;
    }

    // Trailing garbage breaks the exact-size check.
    EXPECT_THROW(loadBinary(writeFile("fat.trc", clean + "xx")),
                 std::runtime_error);

    // Arbitrary garbage, even shorter than a header, and a smashed
    // magic are rejected up front as not being a trace.
    EXPECT_EQ(rejection(writeFile("junk.trc", "not a trace at all")),
              "copra trace: bad magic");
    std::string bad_magic = clean;
    bad_magic[0] ^= 0x20;
    EXPECT_EQ(rejection(writeFile("magic.trc", bad_magic)),
              "copra trace: bad magic");

    // Well-formed v1 and v3 files are rejected by their version.
    std::string why = rejection(writeFile("v1.trc", v1Bytes(t)));
    EXPECT_NE(why.find("unsupported version 1"), std::string::npos) << why;
    why = rejection(writeFile("v3.trc", v3Bytes(t)));
    EXPECT_EQ(why, "copra trace: unsupported version 3");

    // A missing file cannot be mapped at all.
    EXPECT_THROW(loadBinary((dir_ / "absent.trc").string()),
                 std::runtime_error);
}

TEST_F(MappedLoadTest, LoaderRejectsEveryResealedForgery)
{
    // Each forgery carries a valid checksum and breaks one invariant,
    // so the check that names it is the one that must fire.
    // Each message names the record or the site at fault, except the
    // conditional count, which is a header field.
    const std::pair<check::Forgery, const char *> expected[] = {
        {check::Forgery::SiteOutOfRange, "out of range"},
        {check::Forgery::SiteOrder,
         "site id 1 at record 0 is out of first-appearance order"},
        {check::Forgery::DuplicateSite,
         "repeats the pc, target and kind of site 0"},
        {check::Forgery::SiteKind, "invalid kind"},
        {check::Forgery::TakenTwo, "taken byte at record"},
        {check::Forgery::UnreferencedSite, "is never referenced"},
        {check::Forgery::ConditionalCount, "conditional count mismatch"},
    };
    static_assert(std::size(expected) == check::kForgeryCount);
    size_t forged_images = 0;
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        std::string clean = binaryBytes(check::fuzzTrace(seed, 300));
        for (const auto &[forgery, message] : expected) {
            // A trace hammering one pc has no second site to forge.
            std::string forged = check::forgeImage(clean, forgery, seed);
            if (forged.empty())
                continue;
            ++forged_images;
            ASSERT_NE(forged, clean);
            uint64_t stored;
            std::memcpy(&stored, forged.data() + header_offset::kChecksum,
                        sizeof stored);
            EXPECT_EQ(stored,
                      imageChecksum(reinterpret_cast<const unsigned char *>(
                                        forged.data()),
                                    forged.size()))
                << "the forgery must be re-sealed";
            std::string why = rejection(writeFile("forged.trc", forged));
            EXPECT_NE(why.find(message), std::string::npos)
                << "seed " << seed << ": " << why;
        }
    }
    EXPECT_GE(forged_images, 40u);
}

TEST_F(MappedLoadTest, TakenBytesAboveOneAreRejectedNotRewritten)
{
    // A file loads exactly what it holds or fails: a non-canonical
    // taken byte is an error, never silently read as taken.
    Trace t = check::fuzzTrace(4, 200);
    std::string bytes = binaryBytes(t);
    auto *image = reinterpret_cast<unsigned char *>(bytes.data());
    ImageLayout at = imageLayout(static_cast<uint32_t>(t.name().size()),
                                 t.size(), t.soa().siteCount());
    image[at.taken + 17] = 0xff;
    test_support::reseal(bytes);
    EXPECT_NE(rejection(writeFile("taken.trc", bytes))
                  .find("taken byte at record 17"),
              std::string::npos);
}

TEST_F(MappedLoadTest, CacheEvictsV1ContentAsAMiss)
{
    // A v1-format file renamed into a v2 cache slot (e.g. copied from
    // an old cache by hand) is unreadable: the cache reports a miss and
    // removes the entry so the next store regenerates it.
    TraceCache cache(dir_.string());
    TraceCacheKey key{"legacy", 4, 7};
    Trace t("legacy", 7);
    t.append({0x100, 0x180, BranchKind::Conditional, true});
    t.append({0x104, 0x200, BranchKind::Jump, true});
    t.append({0x108, 0x090, BranchKind::Conditional, false});
    t.append({0x10c, 0x0a0, BranchKind::Conditional, true});
    std::string path = writeFile(key.fileName(), v1Bytes(t));

    EXPECT_FALSE(cache.load(key).has_value());
    EXPECT_FALSE(fs::exists(path));
}

TEST_F(MappedLoadTest, CacheEvictsV3ContentAsAMiss)
{
    // A well-formed v3 image in a v4 cache slot (the previous format,
    // checksum intact): the version check rejects it and the cache
    // evicts it.
    TraceCache cache(dir_.string());
    Trace t = check::fuzzTrace(3, 300);
    TraceCacheKey key{t.name(), 300, 3};
    std::string path = writeFile(key.fileName(), v3Bytes(t));
    EXPECT_EQ(rejection(path), "copra trace: unsupported version 3");

    EXPECT_FALSE(cache.load(key).has_value());
    EXPECT_FALSE(fs::exists(path));
}

} // namespace
} // namespace copra::trace
