/**
 * @file
 * Tests for the column store and the cache-v3 loaders: record
 * materialization against the columns over fuzzed traces,
 * conditional-segment and static-index invariants, the rejection of
 * truncated / garbage / wrong-version files by both loaders (with the
 * trace cache evicting what neither can read), and the rejection of
 * re-sealed forgeries that only the verification pass can catch.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <ranges>
#include <sstream>

#include "check/fuzz.hpp"
#include "trace/trace.hpp"
#include "trace/trace_cache.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_soa.hpp"

namespace copra::trace {
namespace {

namespace fs = std::filesystem;

static_assert(std::random_access_iterator<RecordIterator>);
static_assert(std::ranges::sized_range<RecordRange>);

TEST(TraceSoa, RecordsMaterializeFromTheColumns)
{
    // Property over the adversarial fuzz corpus: operator[], the
    // records() iterator and the columns agree index for index, and the
    // static index maps every record back to its own pc.
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        Trace t = check::fuzzTrace(seed, 700);
        const SoABlocks &soa = t.soa();
        ASSERT_EQ(soa.size(), t.size()) << "seed " << seed;
        ASSERT_EQ(t.records().size(), t.size());
        size_t i = 0;
        for (const BranchRecord &rec : t.records()) {
            ASSERT_EQ(soa.pc()[i], rec.pc) << "seed " << seed;
            ASSERT_EQ(soa.target()[i], rec.target);
            ASSERT_EQ(soa.kind()[i], static_cast<uint8_t>(rec.kind));
            ASSERT_EQ(soa.taken()[i] != 0, rec.taken);
            ASSERT_EQ(t[i], rec);
            ASSERT_EQ(soa.staticPcs()[soa.staticIndex()[i]], rec.pc);
            ++i;
        }
        EXPECT_EQ(i, t.size());
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

    /** Serialize @p t in the current (v3) binary format. */
    std::string
    v3Bytes(const Trace &t)
    {
        std::ostringstream os;
        writeBinary(t, os);
        return os.str();
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

TEST_F(MappedLoadTest, MapsV3FilesIdenticallyToTheStreamLoader)
{
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        Trace t = check::fuzzTrace(seed, 400);
        std::string path = writeFile("t.trc", v3Bytes(t));
        Trace mapped = loadBinaryMapped(path);
        Trace streamed = loadBinary(path);
        EXPECT_EQ(mapped.name(), t.name());
        EXPECT_EQ(mapped.seed(), t.seed());
        ASSERT_EQ(mapped.size(), streamed.size());
        for (size_t i = 0; i < mapped.size(); ++i)
            ASSERT_EQ(mapped[i], streamed[i]) << "seed " << seed;
        EXPECT_EQ(mapped.conditionalCount(), t.conditionalCount());
        ASSERT_TRUE(std::ranges::equal(mapped.soa().staticPcs(),
                                       streamed.soa().staticPcs()));
        EXPECT_TRUE(std::equal(mapped.soa().staticIndex(),
                               mapped.soa().staticIndex() + mapped.size(),
                               t.soa().staticIndex()));
        EXPECT_EQ(mapped.soa().conditionalSegments().size(),
                  t.soa().conditionalSegments().size());
    }
}

TEST_F(MappedLoadTest, RejectsTruncatedGarbageAndWrongVersionFiles)
{
    Trace t = check::fuzzTrace(2, 200);
    std::string clean = v3Bytes(t);

    // Truncations at every structurally interesting point: mid-magic,
    // mid-header, mid-name, and mid-column.
    for (size_t cut : {size_t(0), size_t(4), size_t(12), size_t(39),
                       size_t(45), clean.size() - 1}) {
        std::string path =
            writeFile("cut.trc", clean.substr(0, cut));
        EXPECT_THROW(loadBinaryMapped(path), std::runtime_error)
            << "cut at " << cut;
    }

    // Trailing garbage breaks the exact-size check.
    EXPECT_THROW(loadBinaryMapped(writeFile("fat.trc", clean + "xx")),
                 std::runtime_error);

    // Arbitrary garbage and a smashed magic are rejected up front.
    EXPECT_THROW(loadBinaryMapped(writeFile("junk.trc",
                                            "not a trace at all")),
                 std::runtime_error);
    std::string bad_magic = clean;
    bad_magic[0] ^= 0x20;
    EXPECT_THROW(loadBinaryMapped(writeFile("magic.trc", bad_magic)),
                 std::runtime_error);

    // A well-formed v1 file is rejected by both loaders.
    std::string v1_path = writeFile("v1.trc", v1Bytes(t));
    for (auto load : {&loadBinaryMapped, &loadBinary}) {
        try {
            load(v1_path);
            ADD_FAILURE() << "a v1 file must not load";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("unsupported version 1"),
                      std::string::npos)
                << e.what();
        }
    }

    // A missing file cannot be mapped at all.
    EXPECT_THROW(loadBinaryMapped((dir_ / "absent.trc").string()),
                 std::runtime_error);
}

/** The message both loaders give for @p bytes, or "" if one loads. */
std::string
rejection(const std::string &bytes, const std::string &path)
{
    std::string messages[2];
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    try {
        loadBinaryMapped(path);
        return "";
    } catch (const std::runtime_error &e) {
        messages[0] = e.what();
    }
    try {
        std::istringstream in(bytes);
        readBinary(in);
        return "";
    } catch (const std::runtime_error &e) {
        messages[1] = e.what();
    }
    EXPECT_EQ(messages[0], messages[1]) << "the loaders share one check";
    return messages[0];
}

TEST_F(MappedLoadTest, BothLoadersRejectEveryResealedForgery)
{
    // Each forgery carries a valid checksum and breaks one invariant,
    // so the check that names it is the one that must fire.
    const std::pair<check::Forgery, const char *> expected[] = {
        {check::Forgery::StaticIdOtherPc, "names another pc"},
        {check::Forgery::StaticIdOutOfRange, "out of range"},
        {check::Forgery::StaticIdOrder, "first-appearance order"},
        {check::Forgery::DuplicateStaticPc, "duplicate static pc"},
        {check::Forgery::TakenTwo, "taken byte"},
    };
    std::string path = (dir_ / "forged.trc").string();
    size_t forged_images = 0;
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        std::string clean = v3Bytes(check::fuzzTrace(seed, 300));
        for (const auto &[forgery, message] : expected) {
            // A trace hammering one pc has no second branch to forge.
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
            std::string why = rejection(forged, path);
            EXPECT_NE(why.find(message), std::string::npos)
                << "seed " << seed << ": " << why;
        }
    }
    EXPECT_GE(forged_images, 30u);
}

TEST_F(MappedLoadTest, TakenBytesAboveOneAreRejectedNotRewritten)
{
    // A file loads exactly what it holds or fails: a non-canonical
    // taken byte is an error, never silently read as taken.
    Trace t = check::fuzzTrace(4, 200);
    std::string bytes = v3Bytes(t);
    auto *image = reinterpret_cast<unsigned char *>(bytes.data());
    ImageLayout at = imageLayout(static_cast<uint32_t>(t.name().size()),
                                 t.size(), t.soa().staticCount());
    image[at.taken + 17] = 0xff;
    uint64_t checksum = imageChecksum(image, bytes.size());
    std::memcpy(image + header_offset::kChecksum, &checksum, sizeof checksum);
    EXPECT_NE(rejection(bytes, (dir_ / "taken.trc").string())
                  .find("taken byte at record 17"),
              std::string::npos);

    // In-memory callers keep the canonicalizing constructor.
    SoABlocks canonical({0x10, 0x20}, {0x14, 0x24}, {0, 0}, {0, 7});
    EXPECT_EQ(canonical.taken()[1], 1);
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

} // namespace
} // namespace copra::trace
