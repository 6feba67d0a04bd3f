/**
 * @file
 * Property test for the column store: every way of building a trace —
 * per-record append, appendTrace of split halves, and a saveBinary /
 * loadBinary round trip — must produce identical site and taken
 * columns, site table, records, conditional segments, static index,
 * static pcs and conditional count. Covers the fuzz corpus, every fuzz
 * shape on its own, a foreign trace with a pc of two kinds, a chunked
 * Program::runParallel trace (whose chunks are spliced by appendTrace)
 * and a trace with enough distinct pcs to grow the intern tables; and
 * pins the cache-v4 file size of a generated trace.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "check/fuzz.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_soa.hpp"
#include "trace_bytes.hpp"
#include "workload/profiles.hpp"

namespace copra::trace {
namespace {

namespace fs = std::filesystem;

void
expectSameColumns(const SoABlocks &want, const SoABlocks &got,
                  const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    size_t n = want.size();
    EXPECT_EQ(got.conditionalCount(), want.conditionalCount()) << what;
    EXPECT_TRUE(std::equal(want.site(), want.site() + n, got.site()))
        << what;
    EXPECT_TRUE(std::equal(want.taken(), want.taken() + n, got.taken()))
        << what;
    EXPECT_TRUE(std::ranges::equal(
        want.sites(), got.sites(), [](const Site &x, const Site &y) {
            return x.pc == y.pc && x.target == y.target &&
                x.kind == y.kind && x.branch == y.branch;
        }))
        << what;
    for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got.record(i), want.record(i)) << what << " record " << i;
        ASSERT_EQ(got.staticIndex(i), want.staticIndex(i))
            << what << " record " << i;
    }
    EXPECT_TRUE(std::ranges::equal(want.staticPcs(), got.staticPcs()))
        << what;
    auto segs = [](const SoABlocks &soa) {
        std::vector<std::pair<size_t, size_t>> out;
        for (const SoABlocks::Segment &seg : soa.conditionalSegments())
            out.emplace_back(seg.begin, seg.count);
        return out;
    };
    EXPECT_EQ(segs(got), segs(want)) << what;
}

/** Independent oracle for the site table and the two derived indices,
 * from the materialized records alone. */
void
expectIndicesFromFirstPrinciples(const SoABlocks &soa)
{
    std::unordered_map<uint64_t, uint32_t> ids;
    std::map<std::tuple<uint64_t, uint64_t, BranchKind>, uint32_t> sites;
    std::vector<std::pair<size_t, size_t>> runs;
    uint64_t conditionals = 0;
    for (size_t i = 0; i < soa.size(); ++i) {
        const BranchRecord rec = soa.record(i);
        auto [it, fresh] =
            ids.try_emplace(rec.pc, static_cast<uint32_t>(ids.size()));
        ASSERT_EQ(soa.staticIndex(i), it->second) << "record " << i;
        if (fresh) {
            ASSERT_EQ(soa.staticPcs()[it->second], rec.pc);
        }
        auto site = sites.try_emplace({rec.pc, rec.target, rec.kind},
                                      static_cast<uint32_t>(sites.size()));
        ASSERT_EQ(soa.site()[i], site.first->second) << "record " << i;
        if (!rec.isConditional())
            continue;
        ++conditionals;
        if (!runs.empty() && runs.back().first + runs.back().second == i)
            ++runs.back().second;
        else
            runs.emplace_back(i, 1);
    }
    EXPECT_EQ(soa.staticCount(), ids.size());
    EXPECT_EQ(soa.siteCount(), sites.size());
    EXPECT_EQ(soa.conditionalCount(), conditionals);
    ASSERT_EQ(soa.conditionalSegments().size(), runs.size());
    for (size_t k = 0; k < runs.size(); ++k) {
        EXPECT_EQ(soa.conditionalSegments()[k].begin, runs[k].first);
        EXPECT_EQ(soa.conditionalSegments()[k].count, runs[k].second);
    }
}

/** Records [begin, end) of @p t, appended one by one. */
Trace
appended(const Trace &t, size_t begin, size_t end)
{
    Trace out(t.name(), t.seed());
    for (size_t i = begin; i < end; ++i)
        out.append(t[i]);
    return out;
}

void
checkAllConstructions(const Trace &t, const std::string &label)
{
    SCOPED_TRACE(label);
    Trace by_append = appended(t, 0, t.size());
    expectIndicesFromFirstPrinciples(by_append.soa());
    expectSameColumns(by_append.soa(), t.soa(), "source trace");

    const SoABlocks &src = t.soa();
    size_t n = src.size();

    // Cut points at both ends, in the middle, and inside a conditional
    // run, so the splice must merge the segments it joins.
    std::vector<size_t> cuts = {0, n / 3, n / 2, n};
    for (const SoABlocks::Segment &seg : src.conditionalSegments()) {
        if (seg.count >= 2) {
            cuts.push_back(seg.begin + seg.count / 2);
            break;
        }
    }
    for (size_t cut : cuts) {
        Trace spliced = appended(t, 0, cut);
        spliced.appendTrace(appended(t, cut, n));
        expectSameColumns(by_append.soa(), spliced.soa(),
                          "appendTrace at " + std::to_string(cut));
    }

    std::string path =
        (fs::path(::testing::TempDir()) / "copra-columns.trc").string();
    saveBinary(t, path);
    expectSameColumns(by_append.soa(), loadBinary(path).soa(),
                      "loadBinary");
    fs::remove(path);
}

TEST(TraceColumns, FuzzCorpusBuildsIdenticallyEveryWay)
{
    for (uint64_t seed = 1; seed <= 20; ++seed)
        checkAllConstructions(check::fuzzTrace(seed, 600),
                              "fuzz seed " + std::to_string(seed));
}

TEST(TraceColumns, EveryFuzzShapeRoundTripsThroughTheFile)
{
    // Each shape alone: degenerate-pcs and random-soup give one pc
    // several targets, so several sites per static branch.
    for (unsigned s = 0; s < check::kFuzzShapeCount; ++s) {
        auto shape = static_cast<check::FuzzShape>(s);
        Trace t(check::fuzzShapeName(shape), s);
        Rng rng(0x5eed + s);
        check::appendFuzzSegment(t, shape, rng, 800);
        SCOPED_TRACE(check::fuzzShapeName(shape));
        expectIndicesFromFirstPrinciples(t.soa());
        Trace loaded =
            test_support::loadBytes(test_support::binaryBytes(t));
        expectSameColumns(t.soa(), loaded.soa(), "round trip");
    }
}

TEST(TraceColumns, ForeignPcOfTwoKindsRoundTrips)
{
    // A foreign trace may give one pc two kinds (here a Jump and a
    // Conditional) and two targets: each triple is its own site, and
    // all of them share the pc's static id.
    Trace t("foreign", 9);
    const BranchRecord records[] = {
        {0x400, 0x480, BranchKind::Conditional, true},
        {0x400, 0x480, BranchKind::Jump, true},
        {0x500, 0x380, BranchKind::Conditional, false},
        {0x400, 0x480, BranchKind::Conditional, false},
        {0x400, 0x4c0, BranchKind::Jump, true},
        {0x500, 0x380, BranchKind::Conditional, true},
        {0x400, 0x480, BranchKind::Jump, true},
    };
    for (const BranchRecord &rec : records)
        t.append(rec);
    ASSERT_EQ(t.soa().siteCount(), 4u);
    ASSERT_EQ(t.soa().staticCount(), 2u);
    EXPECT_EQ(t.soa().staticIndex(1), t.soa().staticIndex(0));
    EXPECT_EQ(t.conditionalCount(), 4u);
    checkAllConstructions(t, "foreign");
    Trace loaded = test_support::loadBytes(test_support::binaryBytes(t));
    for (size_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(loaded[i], records[i]) << "record " << i;
}

TEST(TraceColumns, GccImageIsAtMostSevenBytesPerConditional)
{
    // Per record 4 B of site id and 1 B of outcome; the site table and
    // the header are a few KiB.
    Trace t = workload::makeBenchmarkTrace("gcc", 200000, 0);
    std::string bytes = test_support::binaryBytes(t);
    EXPECT_LE(bytes.size(), 7 * t.conditionalCount())
        << bytes.size() << " bytes for " << t.conditionalCount()
        << " conditionals";
}

TEST(TraceColumns, ChunkedGenerationSplicesLikeOneAppendStream)
{
    // Above Program::runParallel's 2^18-conditional chunk size, so the
    // generator itself concatenates chunks with appendTrace.
    Trace t = workload::makeBenchmarkTrace("gcc", 300000, 0);
    ASSERT_GT(t.conditionalCount(), uint64_t(1) << 18);
    checkAllConstructions(t, "gcc 300k");
}

TEST(TraceColumns, InternTableGrowthKeepsFirstAppearanceIds)
{
    // 1000 distinct pcs cross the intern table's 256-slot start several
    // times; every seventh record is a jump so segments stay short.
    Trace t("wide", 3);
    for (uint64_t i = 0; i < 6000; ++i) {
        uint64_t pc = 0x10000 + 4 * ((i * 7919) % 1000);
        BranchKind kind =
            i % 7 == 6 ? BranchKind::Jump : BranchKind::Conditional;
        bool taken = kind == BranchKind::Jump || i % 3 == 0;
        t.append({pc, pc + 64, kind, taken});
    }
    ASSERT_EQ(t.soa().staticCount(), 1000u);
    checkAllConstructions(t, "1000 pcs");
}

} // namespace
} // namespace copra::trace
