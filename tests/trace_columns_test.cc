/**
 * @file
 * Property test for the column store: every way of building a trace —
 * per-record append, appendTrace of split halves, and a saveBinary /
 * loadBinary round trip — must produce identical columns, conditional
 * segments, static index, static pcs and conditional count. Covers the
 * fuzz corpus, a chunked Program::runParallel trace (whose chunks are
 * spliced by appendTrace) and a trace with enough distinct pcs to grow
 * the intern table.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <unordered_map>
#include <vector>

#include "check/fuzz.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_soa.hpp"
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
    EXPECT_TRUE(std::equal(want.pc(), want.pc() + n, got.pc())) << what;
    EXPECT_TRUE(std::equal(want.target(), want.target() + n, got.target()))
        << what;
    EXPECT_TRUE(std::equal(want.kind(), want.kind() + n, got.kind()))
        << what;
    EXPECT_TRUE(std::equal(want.taken(), want.taken() + n, got.taken()))
        << what;
    EXPECT_TRUE(std::equal(want.staticIndex(), want.staticIndex() + n,
                           got.staticIndex()))
        << what;
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

/** Independent oracle for the two derived indices. */
void
expectIndicesFromFirstPrinciples(const SoABlocks &soa)
{
    std::unordered_map<uint64_t, uint32_t> ids;
    std::vector<std::pair<size_t, size_t>> runs;
    uint64_t conditionals = 0;
    for (size_t i = 0; i < soa.size(); ++i) {
        auto [it, fresh] = ids.try_emplace(
            soa.pc()[i], static_cast<uint32_t>(ids.size()));
        ASSERT_EQ(soa.staticIndex()[i], it->second) << "record " << i;
        if (fresh) {
            ASSERT_EQ(soa.staticPcs()[it->second], soa.pc()[i]);
        }
        if (soa.kind()[i] != static_cast<uint8_t>(BranchKind::Conditional))
            continue;
        ++conditionals;
        if (!runs.empty() && runs.back().first + runs.back().second == i)
            ++runs.back().second;
        else
            runs.emplace_back(i, 1);
    }
    EXPECT_EQ(soa.staticCount(), ids.size());
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
