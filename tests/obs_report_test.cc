/**
 * @file
 * copra_report's library core: the Markdown regression diff against a
 * checked-in golden (two canned manifests in tests/data/), and the
 * registry-doc renderer that metrics_doc_drift gates on.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "obs/instruments.hpp"
#include "obs/manifest.hpp"
#include "obs/report.hpp"

#ifndef COPRA_REPO_ROOT
#error "COPRA_REPO_ROOT must point at the source tree"
#endif

namespace copra::obs {
namespace {

std::string
slurp(const std::string &rel)
{
    std::ifstream in(std::string(COPRA_REPO_ROOT) + "/" + rel);
    EXPECT_TRUE(in.good()) << "cannot open " << rel;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

TEST(ObsReportTest, DiffMatchesGolden)
{
    Json before = Json::parse(slurp("tests/data/manifest_before.json"));
    Json after = Json::parse(slurp("tests/data/manifest_after.json"));
    std::string report = diffManifests(before, after);
    EXPECT_EQ(report, slurp("tests/data/report_golden.md"))
        << "regenerate with: build/tools/copra_report diff "
           "tests/data/manifest_before.json "
           "tests/data/manifest_after.json "
           "> tests/data/report_golden.md";
}

TEST(ObsReportTest, DiffThresholdControlsNotables)
{
    Json before = Json::parse(slurp("tests/data/manifest_before.json"));
    Json after = Json::parse(slurp("tests/data/manifest_after.json"));
    DiffOptions strict;
    strict.threshold = 0.50; // only the 100% pool moves qualify
    std::string report = diffManifests(before, after, strict);
    EXPECT_NE(report.find("pool.task.queued`: +100.00%"),
              std::string::npos);
    EXPECT_EQ(report.find("`sim.run.mispredicts`: -6.25%"),
              std::string::npos);
}

TEST(ObsReportTest, DiffRejectsSchemaMismatch)
{
    Json before = Json::parse(slurp("tests/data/manifest_before.json"));
    Json wrong = Json::parse(
        "{\"schema_version\": 999, \"instruments\": []}");
    EXPECT_THROW(diffManifests(before, wrong), std::runtime_error);
    Json not_manifest = Json::parse("{\"foo\": 1}");
    EXPECT_THROW(diffManifests(not_manifest, before),
                 std::runtime_error);
}

TEST(ObsReportTest, RegistryDocListsEveryInstrument)
{
    std::string doc = renderRegistryDoc();
    for (const InstrumentDesc &desc : instrumentCatalog()) {
        std::string quoted = "`";
        quoted += desc.key;
        quoted += '`';
        EXPECT_NE(doc.find(quoted), std::string::npos)
            << "instrument " << desc.key << " missing from doc";
    }
    EXPECT_NE(doc.find("metrics_doc_drift"), std::string::npos);
}

TEST(ObsReportTest, CheckedInMetricsDocIsCurrent)
{
    // Same comparison the metrics_doc_drift ctest gate makes, kept
    // here too so `ctest -R obs` alone catches a stale doc.
    EXPECT_EQ(renderRegistryDoc(), slurp("docs/METRICS.md"))
        << "regenerate with: build/tools/copra_report --doc-registry "
           "> docs/METRICS.md";
}

} // namespace
} // namespace copra::obs
