/**
 * @file
 * Unit tests for copra_lint's cross-TU call-graph pass (DESIGN.md
 * §15): COPRA_HOT mark binding, virtual fan-out to overriders,
 * out-of-line method resolution, hot-region closure and provenance,
 * the unresolved-callee report, and the byte-to-display column
 * conversion behind the SARIF/JSON emitters.
 *
 * Lint directives and COPRA_HOT marks appear below only inside string
 * literals; the linter's lexer skips strings, so this file cannot trip
 * the rules it exercises when the tree gate walks tests/.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "copra_lint/lint.hpp"

namespace {

using copra::lint::buildCallGraph;
using copra::lint::buildSemaModel;
using copra::lint::CallGraph;
using copra::lint::CgFunction;
using copra::lint::displayColumn;
using copra::lint::FileScan;
using copra::lint::Finding;
using copra::lint::runCallGraphRules;
using copra::lint::scanSource;
using copra::lint::SemaModel;

/** Scan a set of (rel, source) pairs into FileScans. */
std::vector<FileScan>
scanAll(const std::vector<std::pair<std::string, std::string>> &files)
{
    std::vector<FileScan> scans;
    for (const auto &[rel, src] : files)
        scans.push_back(scanSource(rel, src));
    return scans;
}

/** Index of the function labelled @p label, or npos. */
size_t
functionIndex(const CallGraph &cg, const std::string &label)
{
    for (size_t i = 0; i < cg.functions.size(); ++i)
        if (cg.functions[i].label() == label)
            return i;
    return std::string::npos;
}

bool
isHot(const CallGraph &cg, const std::string &label)
{
    size_t i = functionIndex(cg, label);
    return i != std::string::npos && cg.hot[i];
}

int
countRule(const std::vector<Finding> &findings, const std::string &rule)
{
    int n = 0;
    for (const Finding &f : findings)
        if (f.rule == rule)
            ++n;
    return n;
}

/**
 * A two-file hierarchy: a COPRA_HOT mark on the base virtual must root
 * the base body, fan out to the derived overrider in another TU, and
 * pull helpers reached from either body into the region — while a
 * function nobody hot calls stays out.
 */
std::vector<FileScan>
hierarchyScans()
{
    return scanAll({
        {"src/predictor/base.hpp",
         "#pragma once\n"
         "class HotBase\n"
         "{\n"
         "  public:\n"
         "    COPRA_HOT virtual int step(int x) noexcept;\n"
         "    virtual ~HotBase() = default;\n"
         "};\n"
         "class HotDerived : public HotBase\n"
         "{\n"
         "  public:\n"
         "    int step(int x) noexcept override;\n"
         "};\n"},
        {"src/predictor/base.cc",
         "#include \"predictor/base.hpp\"\n"
         "int\n"
         "helperA(int x) noexcept\n"
         "{\n"
         "    return x + 1;\n"
         "}\n"
         "int\n"
         "coldHelper(int x)\n"
         "{\n"
         "    return x - 1;\n"
         "}\n"
         "int\n"
         "HotBase::step(int x) noexcept\n"
         "{\n"
         "    return helperA(x);\n"
         "}\n"},
        {"src/predictor/derived.cc",
         "#include \"predictor/base.hpp\"\n"
         "int\n"
         "helperB(int x) noexcept\n"
         "{\n"
         "    return x * 2;\n"
         "}\n"
         "int\n"
         "HotDerived::step(int x) noexcept\n"
         "{\n"
         "    return helperB(x);\n"
         "}\n"},
    });
}

TEST(CallGraph, MarkOnBaseVirtualFansOutToOverriders)
{
    std::vector<FileScan> scans = hierarchyScans();
    SemaModel model = buildSemaModel(scans);
    CallGraph cg = buildCallGraph(model, scans);

    ASSERT_EQ(cg.marks.size(), 1u);
    EXPECT_EQ(cg.marks[0].cls, "HotBase");
    EXPECT_EQ(cg.marks[0].method, "step");
    EXPECT_TRUE(cg.markBound[0]);

    // Both out-of-line bodies join the region, each dragging its own
    // TU-local helper in; the uncalled helper stays cold.
    EXPECT_TRUE(isHot(cg, "HotBase::step"));
    EXPECT_TRUE(isHot(cg, "HotDerived::step"));
    EXPECT_TRUE(isHot(cg, "helperA"));
    EXPECT_TRUE(isHot(cg, "helperB"));
    EXPECT_FALSE(isHot(cg, "coldHelper"));
}

TEST(CallGraph, ProvenanceNamesTheRootAndRulesSeeTheRegion)
{
    std::vector<FileScan> scans = hierarchyScans();
    SemaModel model = buildSemaModel(scans);
    CallGraph cg = buildCallGraph(model, scans);

    size_t helper = functionIndex(cg, "helperA");
    ASSERT_NE(helper, std::string::npos);
    EXPECT_NE(cg.hotVia[helper].find("HotBase::step"),
              std::string::npos);

    // coldHelper lacks noexcept but is outside the region: no finding.
    // The hierarchy itself is clean.
    std::vector<Finding> findings =
        runCallGraphRules(cg, model, scans);
    EXPECT_EQ(findings.size(), 0u)
        << (findings.empty() ? "" : findings[0].message);
}

TEST(CallGraph, HotRegionViolationsFire)
{
    std::vector<FileScan> scans = scanAll({
        {"src/sim/hot.cc",
         "COPRA_HOT int\n"
         "hotLeaf(int x) noexcept\n"
         "{\n"
         "    auto *p = new int(x);\n"
         "    printf(\"x\");\n"
         "    return *p;\n"
         "}\n"
         "int\n"
         "missingNoexcept(int x)\n"
         "{\n"
         "    return x;\n"
         "}\n"
         "COPRA_HOT int\n"
         "hotCaller(int x) noexcept\n"
         "{\n"
         "    return missingNoexcept(x);\n"
         "}\n"},
    });
    SemaModel model = buildSemaModel(scans);
    CallGraph cg = buildCallGraph(model, scans);
    std::vector<Finding> findings =
        runCallGraphRules(cg, model, scans);

    EXPECT_EQ(countRule(findings, "hot-alloc"), 1);
    EXPECT_EQ(countRule(findings, "hot-io"), 1);
    // missingNoexcept joined the region through hotCaller, so its head
    // fires hot-throw despite carrying no mark of its own.
    EXPECT_EQ(countRule(findings, "hot-throw"), 1);
}

TEST(CallGraph, UnresolvableCalleeIsReportedNotIgnored)
{
    std::vector<FileScan> scans = scanAll({
        {"src/sim/hot.cc",
         "COPRA_HOT int\n"
         "hotEntry(int x) noexcept\n"
         "{\n"
         "    return mysteryCall(x);\n"
         "}\n"},
    });
    SemaModel model = buildSemaModel(scans);
    CallGraph cg = buildCallGraph(model, scans);
    std::vector<Finding> findings =
        runCallGraphRules(cg, model, scans);
    ASSERT_EQ(countRule(findings, "hot-unresolved"), 1);
    for (const Finding &f : findings) {
        if (f.rule == "hot-unresolved") {
            EXPECT_NE(f.message.find("mysteryCall"), std::string::npos);
        }
    }
}

TEST(CallGraph, MarkBindingNothingIsReported)
{
    std::vector<FileScan> scans = scanAll({
        {"src/sim/orphan.hpp",
         "#pragma once\n"
         "class Orphan\n"
         "{\n"
         "  public:\n"
         "    COPRA_HOT void neverDefined() noexcept;\n"
         "};\n"},
    });
    SemaModel model = buildSemaModel(scans);
    CallGraph cg = buildCallGraph(model, scans);
    ASSERT_EQ(cg.marks.size(), 1u);
    EXPECT_FALSE(cg.markBound[0]);
    std::vector<Finding> findings =
        runCallGraphRules(cg, model, scans);
    EXPECT_EQ(countRule(findings, "hot-unresolved"), 1);
}

TEST(CallGraph, CheckDirIsOutsideTheRegion)
{
    // The same marked function under src/check/ must not join the
    // region: harness and reference-model code is clarity-first.
    std::vector<FileScan> scans = scanAll({
        {"src/check/ref.cc",
         "COPRA_HOT int\n"
         "refStep(int x) noexcept\n"
         "{\n"
         "    auto *p = new int(x);\n"
         "    return *p;\n"
         "}\n"},
    });
    SemaModel model = buildSemaModel(scans);
    CallGraph cg = buildCallGraph(model, scans);
    std::vector<Finding> findings =
        runCallGraphRules(cg, model, scans);
    EXPECT_EQ(countRule(findings, "hot-alloc"), 0);
    EXPECT_FALSE(isHot(cg, "refStep"));
}

TEST(DisplayColumn, TabsExpandToEightWideStops)
{
    // A finding 1 byte past a leading tab sits at display column 9.
    EXPECT_EQ(displayColumn("\tint x;", 2), 9);
    // Two tabs: the second jumps from column 9 to 17.
    EXPECT_EQ(displayColumn("\t\tint x;", 3), 17);
    // A tab mid-line advances to the *next* stop, not by eight.
    EXPECT_EQ(displayColumn("ab\tcd", 4), 9);
}

TEST(DisplayColumn, Utf8ContinuationBytesDoNotAdvance)
{
    // "é" is two bytes (0xC3 0xA9); the byte after it is column 3.
    std::string line = "\xC3\xA9x";
    EXPECT_EQ(displayColumn(line, 3), 2);
    // Plain ASCII is the identity.
    EXPECT_EQ(displayColumn("abcdef", 4), 4);
}

} // namespace
