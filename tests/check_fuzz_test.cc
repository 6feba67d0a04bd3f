/**
 * @file
 * Tests for the deterministic trace fuzzer and the byte-level corruptor:
 * same-seed reproducibility, shape coverage across a seed range, binary
 * round-trip bit-equality for every fuzzed trace, and corruptBytes
 * actually producing distinct, differing byte strings.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "check/fuzz.hpp"
#include "trace_bytes.hpp"
#include "util/rng.hpp"

namespace copra::check {
namespace {

using test_support::binaryBytes;
using test_support::loadBytes;

TEST(Fuzz, SameSeedSameTrace)
{
    for (uint64_t seed : {0ull, 1ull, 42ull, 0xdeadbeefull}) {
        trace::Trace a = fuzzTrace(seed, 1500);
        trace::Trace b = fuzzTrace(seed, 1500);
        ASSERT_EQ(a.size(), b.size()) << "seed " << seed;
        for (size_t i = 0; i < a.size(); ++i)
            ASSERT_EQ(a[i], b[i]) << "seed " << seed << " record " << i;
        EXPECT_EQ(a.name(), b.name());
        EXPECT_EQ(a.seed(), b.seed());
    }
}

TEST(Fuzz, DifferentSeedsDiffer)
{
    trace::Trace a = fuzzTrace(7, 1000);
    trace::Trace b = fuzzTrace(8, 1000);
    bool differ = a.size() != b.size();
    for (size_t i = 0; !differ && i < a.size(); ++i)
        differ = !(a[i] == b[i]);
    EXPECT_TRUE(differ);
}

TEST(Fuzz, ProducesRequestedConditionalVolume)
{
    for (uint64_t seed = 0; seed < 20; ++seed) {
        trace::Trace t = fuzzTrace(seed, 2000);
        size_t conditionals = 0;
        for (const auto &rec : t.records())
            if (rec.kind == trace::BranchKind::Conditional)
                ++conditionals;
        // Segment boundaries round, so allow slack — but the trace must
        // carry a real workload, not a handful of branches.
        EXPECT_GE(conditionals, 1000u) << "seed " << seed;
        EXPECT_LE(t.size(), 3 * 2000u) << "seed " << seed;
    }
}

TEST(Fuzz, EveryShapeGeneratesSomething)
{
    for (unsigned s = 0; s < kFuzzShapeCount; ++s) {
        auto shape = static_cast<FuzzShape>(s);
        Rng rng(uint64_t(100 + s));
        trace::Trace t("shape", 0);
        appendFuzzSegment(t, shape, rng, 500);
        EXPECT_GT(t.size(), 0u) << fuzzShapeName(shape);
        EXPECT_NE(fuzzShapeName(shape), nullptr);
    }
}

TEST(Fuzz, SeedRangeExercisesEveryShape)
{
    // The differential suite's default seed range must actually pull in
    // all adversarial shapes, not sample one corner forever. We detect
    // shape usage by the distinct-pc signature each generator leaves.
    std::set<std::string> names;
    for (uint64_t seed = 1; seed <= 100; ++seed)
        names.insert(fuzzTrace(seed, 200).name());
    // Names embed the seed, so this just sanity-checks the generator ran
    // the whole range; the real coverage check is statistical:
    EXPECT_EQ(names.size(), 100u);

    size_t degenerate_hits = 0, wide_hits = 0;
    for (uint64_t seed = 1; seed <= 100; ++seed) {
        trace::Trace t = fuzzTrace(seed, 400);
        std::set<uint64_t> pcs;
        for (const auto &rec : t.records())
            pcs.insert(rec.pc);
        if (pcs.size() <= 8)
            ++degenerate_hits;
        if (pcs.size() >= 64)
            ++wide_hits;
    }
    EXPECT_GT(degenerate_hits, 0u)
        << "no degenerate-pc traces in the default seed range";
    EXPECT_GT(wide_hits, 0u)
        << "no alias-heavy/wide traces in the default seed range";
}

TEST(Fuzz, FuzzedTracesRoundTripBitEqual)
{
    // Serialize -> deserialize -> serialize must be byte-identical for
    // every fuzzed trace; this is the strongest trace_io contract.
    for (uint64_t seed = 1; seed <= 50; ++seed) {
        trace::Trace t = fuzzTrace(seed, 600);
        std::string first = binaryBytes(t);
        trace::Trace back = loadBytes(first);
        ASSERT_EQ(first, binaryBytes(back)) << "seed " << seed;
        ASSERT_EQ(back.size(), t.size());
        for (size_t i = 0; i < t.size(); ++i)
            ASSERT_EQ(back[i], t[i]) << "seed " << seed << " rec " << i;
    }
}

TEST(Fuzz, CorruptBytesIsDeterministicAndAlwaysDiffers)
{
    trace::Trace t = fuzzTrace(3, 300);
    const std::string clean = binaryBytes(t);
    for (uint64_t seed = 0; seed < 64; ++seed) {
        std::string a = corruptBytes(clean, seed);
        std::string b = corruptBytes(clean, seed);
        EXPECT_EQ(a, b) << "seed " << seed;
        EXPECT_NE(a, clean) << "seed " << seed;
    }
}

TEST(Fuzz, CorruptBytesNeverRoundTripsSilentlyWrong)
{
    // Decoding corrupted bytes must either throw or yield a trace; a
    // yielded trace re-encoded must NOT equal the corrupted input only
    // in ways that change decoded content (i.e. decode(corrupt) is
    // stable: encode(decode(x)) == encode(decode(encode(decode(x))))).
    trace::Trace t = fuzzTrace(11, 200);
    const std::string clean = binaryBytes(t);
    for (uint64_t seed = 0; seed < 128; ++seed) {
        std::string bad = corruptBytes(clean, seed);
        try {
            trace::Trace decoded = loadBytes(bad);
            trace::Trace decoded2 = loadBytes(binaryBytes(decoded));
            ASSERT_EQ(decoded2.size(), decoded.size()) << "seed " << seed;
            for (size_t i = 0; i < decoded.size(); ++i)
                ASSERT_EQ(decoded2[i], decoded[i])
                    << "seed " << seed << " rec " << i;
        } catch (const std::exception &) {
            // Rejecting corrupt input is the expected common case.
        }
    }
}

TEST(Fuzz, ReaderRejectsImplausibleHeaderWithoutHugeAllocation)
{
    // A hostile name-length field must be rejected up front rather than
    // driving a multi-gigabyte string allocation.
    trace::Trace t("n", 1);
    t.append({0x10, 0x20, trace::BranchKind::Conditional, true});
    std::string bytes = binaryBytes(t);
    // v2 name_len field lives at offset 12..15 (little-endian).
    bytes[12] = bytes[13] = bytes[14] = bytes[15] = char(0xff);
    EXPECT_THROW(loadBytes(bytes), std::runtime_error);
}

} // namespace
} // namespace copra::check
