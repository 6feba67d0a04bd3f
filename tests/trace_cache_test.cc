/**
 * @file
 * Unit tests for the on-disk trace cache: hit, miss, corrupt-file and
 * version-mismatch paths, atomic stores, the global toggle used by
 * makeExperimentTrace, and the zero-copy contract of a warm load (the
 * trace views the mapped file, survives the file's replacement, and
 * copies it only when appended to).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "check/fuzz.hpp"
#include "core/experiments.hpp"
#include "obs/instruments.hpp"
#include "obs/registry.hpp"
#include "trace/trace_cache.hpp"
#include "trace/trace_io.hpp"

namespace copra::trace {
namespace {

namespace fs = std::filesystem;

class TraceCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = fs::path(::testing::TempDir()) /
            ("copra-cache-" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
        fs::remove_all(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    Trace
    sampleTrace(const std::string &name, uint64_t seed)
    {
        Trace t(name, seed);
        t.append({0x100, 0x180, BranchKind::Conditional, true});
        t.append({0x104, 0x200, BranchKind::Call, true});
        t.append({0x204, 0x108, BranchKind::Return, true});
        t.append({0x108, 0x090, BranchKind::Conditional, false});
        return t;
    }

    fs::path dir_;
};

TEST_F(TraceCacheTest, KeyFileNameEncodesAllComponents)
{
    TraceCacheKey key{"gcc", 2000000, 7};
    std::string file = key.fileName();
    EXPECT_EQ(file, "gcc-b2000000-s7-v" +
                  std::to_string(kTraceFormatVersion) + ".trc");

    // Hostile names cannot escape the cache directory.
    TraceCacheKey weird{"../evil/name", 1, 2};
    EXPECT_EQ(weird.fileName().find('/'), std::string::npos);
}

TEST_F(TraceCacheTest, MissThenStoreThenHit)
{
    TraceCache cache(dir_.string());
    TraceCacheKey key{"sample", 4, 1};

    EXPECT_FALSE(cache.load(key).has_value());

    Trace original = sampleTrace("sample", 1);
    ASSERT_TRUE(cache.store(key, original));
    EXPECT_TRUE(fs::exists(cache.pathFor(key)));

    auto loaded = cache.load(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->name(), original.name());
    EXPECT_EQ(loaded->seed(), original.seed());
    ASSERT_EQ(loaded->size(), original.size());
    for (size_t i = 0; i < original.size(); ++i)
        EXPECT_EQ((*loaded)[i], original[i]) << "record " << i;
}

TEST_F(TraceCacheTest, LoadOrGenerateCallsGeneratorOnlyOnMiss)
{
    TraceCache cache(dir_.string());
    TraceCacheKey key{"sample", 4, 1};
    int generations = 0;
    auto generate = [&]() {
        ++generations;
        return sampleTrace("sample", 1);
    };

    Trace first = cache.loadOrGenerate(key, generate);
    EXPECT_EQ(generations, 1);
    Trace second = cache.loadOrGenerate(key, generate);
    EXPECT_EQ(generations, 1) << "second call must be a cache hit";
    EXPECT_EQ(second.size(), first.size());
}

TEST_F(TraceCacheTest, CorruptEntryIsDroppedAndRegenerated)
{
    TraceCache cache(dir_.string());
    TraceCacheKey key{"sample", 4, 1};
    ASSERT_TRUE(cache.store(key, sampleTrace("sample", 1)));

    // Truncate the entry mid-record.
    {
        std::ofstream out(cache.pathFor(key),
                          std::ios::binary | std::ios::trunc);
        out << "COPRATRC garbage";
    }

    EXPECT_FALSE(cache.load(key).has_value());
    EXPECT_FALSE(fs::exists(cache.pathFor(key)))
        << "corrupt entry must be deleted";

    int generations = 0;
    Trace regenerated = cache.loadOrGenerate(key, [&]() {
        ++generations;
        return sampleTrace("sample", 1);
    });
    EXPECT_EQ(generations, 1);
    EXPECT_EQ(regenerated.size(), 4u);
    EXPECT_TRUE(cache.load(key).has_value());
}

TEST_F(TraceCacheTest, MalformedHeaderVariantsAreDroppedAndDeleted)
{
    TraceCache cache(dir_.string());
    TraceCacheKey key{"sample", 4, 1};

    // Each mutation damages a different header field; every one must be
    // treated as a miss AND remove the bad file, not just truncations.
    struct Variant
    {
        const char *what;
        void (*mutate)(std::string &);
    };
    const Variant variants[] = {
        {"bad magic byte",
         [](std::string &b) { b[3] ^= 0x20; }},
        {"implausible name length",
         [](std::string &b) {
             // The name_len field lives at offset 12..15 (little-endian).
             b[12] = b[13] = b[14] = b[15] = char(0xff);
         }},
        {"inflated record count",
         [](std::string &b) {
             // count is the u64 at header offset 24..31.
             b[24 + 7] = char(0x7f);
         }},
        {"poisoned record kind",
         [](std::string &b) {
             // First kind byte of the 4-record, 4-branch image named
             // "sample".
             b[imageLayout(6, 4, 4).kind] = char(0x3f);
         }},
    };

    for (const Variant &variant : variants) {
        ASSERT_TRUE(cache.store(key, sampleTrace("sample", 1)));
        std::string path = cache.pathFor(key);
        std::string bytes;
        {
            std::ifstream in(path, std::ios::binary);
            std::ostringstream slurp;
            slurp << in.rdbuf();
            bytes = slurp.str();
        }
        variant.mutate(bytes);
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out.write(bytes.data(),
                      static_cast<std::streamsize>(bytes.size()));
        }
        EXPECT_FALSE(cache.load(key).has_value()) << variant.what;
        EXPECT_FALSE(fs::exists(path))
            << variant.what << ": malformed entry must be deleted";
    }
}

TEST_F(TraceCacheTest, FuzzedCorruptionsNeverYieldMislabeledTraces)
{
    TraceCache cache(dir_.string());
    TraceCacheKey key{"sample", 4, 1};
    Trace original = sampleTrace("sample", 1);
    std::string clean;
    {
        std::ostringstream os;
        writeBinary(original, os);
        clean = os.str();
    }

    // Whatever the mutation does, load() must either miss (deleting the
    // bad entry) or hand back a trace still labeled for this key — a
    // silently mislabeled or torn result is the one forbidden outcome.
    for (uint64_t seed = 0; seed < 200; ++seed) {
        std::string corrupted = check::corruptBytes(clean, seed);
        std::string path = cache.pathFor(key);
        fs::create_directories(dir_);
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out.write(corrupted.data(),
                      static_cast<std::streamsize>(corrupted.size()));
        }
        auto loaded = cache.load(key);
        if (loaded.has_value()) {
            EXPECT_EQ(loaded->name(), "sample") << "seed " << seed;
        } else {
            EXPECT_FALSE(fs::exists(path))
                << "seed " << seed << ": dropped entry must be deleted";
        }
    }
}

TEST_F(TraceCacheTest, VersionMismatchIsTreatedAsMiss)
{
    TraceCache cache(dir_.string());
    TraceCacheKey key{"sample", 4, 1};
    ASSERT_TRUE(cache.store(key, sampleTrace("sample", 1)));

    // Patch the format version field (bytes 8..11, little-endian) to a
    // future version, as if a newer copra had written this entry under
    // the same name.
    std::string path = cache.pathFor(key);
    {
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        ASSERT_TRUE(f.good());
        f.seekp(8);
        uint32_t bogus = 999;
        char bytes[4];
        for (int i = 0; i < 4; ++i)
            bytes[i] = static_cast<char>((bogus >> (8 * i)) & 0xff);
        f.write(bytes, 4);
    }

    EXPECT_FALSE(cache.load(key).has_value());
    EXPECT_FALSE(fs::exists(path)) << "mismatched entry must be deleted";
}

TEST_F(TraceCacheTest, MislabeledEntryIsDropped)
{
    TraceCache cache(dir_.string());
    TraceCacheKey key{"sample", 4, 1};
    // A trace whose embedded name disagrees with the key (e.g. a file
    // copied between cache directories by hand).
    ASSERT_TRUE(cache.store(key, sampleTrace("other", 1)));
    EXPECT_FALSE(cache.load(key).has_value());
}

TEST_F(TraceCacheTest, VersionBumpChangesEntryName)
{
    TraceCacheKey key{"sample", 4, 1};
    std::string file = key.fileName();
    EXPECT_NE(file.find("-v" + std::to_string(kTraceFormatVersion) +
                        ".trc"),
              std::string::npos)
        << "cache entries must be keyed on the trace format version";
}

TEST_F(TraceCacheTest, MakeExperimentTraceUsesCacheOnlyWhenEnabled)
{
    // Point the global cache at a private directory for this test.
    ASSERT_FALSE(traceCacheEnabled())
        << "trace cache must default to off for library users";

    core::ExperimentConfig config;
    config.branches = 2000;

    // Disabled: no cache directory appears.
    trace::Trace direct = core::makeExperimentTrace("compress", config);
    EXPECT_GT(direct.size(), 0u);

    // Enabled: entry is written and the second build hits it, yielding
    // the identical trace.
    setTraceCacheEnabled(true);
    trace::Trace first = core::makeExperimentTrace("compress", config);
    trace::Trace second = core::makeExperimentTrace("compress", config);
    setTraceCacheEnabled(false);

    TraceCacheKey key{"compress", config.branches, config.seed};
    EXPECT_TRUE(fs::exists(globalTraceCache().pathFor(key)));
    ASSERT_EQ(first.size(), second.size());
    ASSERT_EQ(first.size(), direct.size());
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i], second[i]);
        EXPECT_EQ(first[i], direct[i]);
    }
    fs::remove(globalTraceCache().pathFor(key));
}

/** Address range of this process's mapping of @p path, if any. */
std::optional<std::pair<uintptr_t, uintptr_t>>
mappedRange(const std::string &path)
{
    std::ifstream maps("/proc/self/maps");
    std::string canonical = fs::canonical(path).string();
    std::string line;
    while (std::getline(maps, line)) {
        // "start-end perms offset dev inode   path[ (deleted)]"
        if (line.find(canonical) == std::string::npos)
            continue;
        uintptr_t start = std::stoull(line, nullptr, 16);
        uintptr_t end = std::stoull(line.substr(line.find('-') + 1),
                                    nullptr, 16);
        return std::make_pair(start, end);
    }
    return std::nullopt;
}

/** Every column and derived index of @p got equals @p want's. */
void
expectSameSoa(const Trace &want, const Trace &got)
{
    const SoABlocks &a = want.soa();
    const SoABlocks &b = got.soa();
    ASSERT_EQ(a.size(), b.size());
    size_t n = a.size();
    EXPECT_EQ(a.conditionalCount(), b.conditionalCount());
    EXPECT_TRUE(std::equal(a.pc(), a.pc() + n, b.pc()));
    EXPECT_TRUE(std::equal(a.target(), a.target() + n, b.target()));
    EXPECT_TRUE(std::equal(a.kind(), a.kind() + n, b.kind()));
    EXPECT_TRUE(std::equal(a.taken(), a.taken() + n, b.taken()));
    EXPECT_TRUE(
        std::equal(a.staticIndex(), a.staticIndex() + n, b.staticIndex()));
    EXPECT_TRUE(std::ranges::equal(a.staticPcs(), b.staticPcs()));
    auto segments = [](const SoABlocks &soa) {
        std::vector<std::pair<size_t, size_t>> out;
        for (const SoABlocks::Segment &seg : soa.conditionalSegments())
            out.emplace_back(seg.begin, seg.count);
        return out;
    };
    EXPECT_EQ(segments(a), segments(b));
}

TEST_F(TraceCacheTest, WarmLoadViewsTheMappedFileInPlace)
{
    if (!fs::exists("/proc/self/maps"))
        GTEST_SKIP() << "needs /proc/self/maps to locate the mapping";
    TraceCache cache(dir_.string());
    TraceCacheKey key{"fuzz-5", 2000, 5};
    Trace original = check::fuzzTrace(5, 2000);
    ASSERT_TRUE(cache.store(key, original));

    obs::Registry::instance().reset();
    obs::setEnabled(true);
    std::optional<Trace> loaded = cache.load(key);
    uint64_t mmap_hits = obs::Registry::instance()
                             .snapshot()
                             .values.at(obs::ids().traceCacheMmapHit)
                             .scalar;
    obs::setEnabled(false);
    obs::Registry::instance().reset();
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(mmap_hits, 1u) << "a warm load must be served by the mapping";

    // The pc column lies inside the mapping of the cache file: the load
    // viewed it in place instead of copying it out.
    auto range = mappedRange(cache.pathFor(key));
    ASSERT_TRUE(range.has_value()) << "the cache file is not mapped";
    auto pc = reinterpret_cast<uintptr_t>(loaded->soa().pc());
    EXPECT_GE(pc, range->first);
    EXPECT_LT(pc, range->second);

    // A copy shares the image rather than copying it.
    Trace copy = *loaded;
    EXPECT_EQ(copy.soa().pc(), loaded->soa().pc());

    // A store replaces the file by rename; the loaded trace keeps the
    // old file's mapping and stays valid and unchanged.
    Trace replacement = check::fuzzTrace(6, 500);
    replacement.setName(key.benchmark);
    ASSERT_TRUE(cache.store(key, replacement));
    expectSameSoa(original, *loaded);
    expectSameSoa(original, copy);
    std::optional<Trace> reloaded = cache.load(key);
    ASSERT_TRUE(reloaded.has_value());
    expectSameSoa(replacement, *reloaded);
}

/** A trace in the retired cache-v2 layout: 48-byte header with an
 * FNV-1a payload checksum, padded name, then the four columns. */
std::string
v2Bytes(const Trace &t)
{
    std::string payload;
    auto put = [](std::string &out, uint64_t v, int bytes) {
        for (int i = 0; i < bytes; ++i)
            out.push_back(char((v >> (8 * i)) & 0xff));
    };
    const SoABlocks &soa = t.soa();
    for (size_t i = 0; i < soa.size(); ++i)
        put(payload, soa.pc()[i], 8);
    for (size_t i = 0; i < soa.size(); ++i)
        put(payload, soa.target()[i], 8);
    payload.append(reinterpret_cast<const char *>(soa.kind()), soa.size());
    payload.append(reinterpret_cast<const char *>(soa.taken()), soa.size());
    uint64_t h = 1469598103934665603ull;
    size_t words = payload.size() / 8;
    for (size_t w = 0; w < words; ++w) {
        uint64_t v;
        std::memcpy(&v, payload.data() + 8 * w, 8);
        h = (h ^ v) * 1099511628211ull;
    }
    for (size_t i = 8 * words; i < payload.size(); ++i)
        h = (h ^ static_cast<unsigned char>(payload[i])) * 1099511628211ull;

    std::string out("COPRATRC", 8);
    put(out, 2, 4);
    put(out, t.name().size(), 4);
    put(out, t.seed(), 8);
    put(out, t.size(), 8);
    put(out, t.conditionalCount(), 8);
    put(out, h, 8);
    out += t.name();
    out.resize(48 + ((t.name().size() + 7) & ~size_t(7)), '\0');
    return out + payload;
}

TEST_F(TraceCacheTest, V2EntryInACacheSlotIsEvictedAndRegenerated)
{
    // A well-formed v2 file copied by hand into a v3 cache slot: both
    // loaders reject its version, the cache evicts it, and the next
    // loadOrGenerate regenerates and stores a v3 entry.
    TraceCache cache(dir_.string());
    TraceCacheKey key{"sample", 4, 1};
    fs::create_directories(dir_);
    {
        std::ofstream out(cache.pathFor(key), std::ios::binary);
        std::string bytes = v2Bytes(sampleTrace("sample", 1));
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_THROW(loadBinary(cache.pathFor(key)), std::runtime_error);
    EXPECT_FALSE(cache.load(key).has_value());
    EXPECT_FALSE(fs::exists(cache.pathFor(key)));

    int generations = 0;
    Trace regenerated = cache.loadOrGenerate(key, [&]() {
        ++generations;
        return sampleTrace("sample", 1);
    });
    EXPECT_EQ(generations, 1);
    std::optional<Trace> hit = cache.load(key);
    ASSERT_TRUE(hit.has_value());
    expectSameSoa(sampleTrace("sample", 1), *hit);
}

TEST_F(TraceCacheTest, AppendToAMappedTraceMatchesAppendToAGeneratedOne)
{
    TraceCache cache(dir_.string());
    TraceCacheKey key{"fuzz-7", 1500, 7};
    Trace generated = check::fuzzTrace(7, 1500);
    ASSERT_TRUE(cache.store(key, generated));
    std::optional<Trace> mapped = cache.load(key);
    ASSERT_TRUE(mapped.has_value());
    Trace untouched = *mapped;

    // One new pc, one repeated pc, then a whole trace whose pcs
    // partly overlap: every path that interns into the copied image.
    Trace tail = check::fuzzTrace(8, 700);
    for (Trace *t : {&generated, &*mapped}) {
        t->append({0xdead0, 0xdead8, BranchKind::Conditional, true});
        t->append({generated.soa().pc()[0], 0x40, BranchKind::Jump, true});
        t->appendTrace(tail);
    }
    expectSameSoa(generated, *mapped);
    EXPECT_NE(mapped->soa().pc(), untouched.soa().pc())
        << "the appended trace must own its columns";
    expectSameSoa(check::fuzzTrace(7, 1500), untouched);
}

} // namespace
} // namespace copra::trace
