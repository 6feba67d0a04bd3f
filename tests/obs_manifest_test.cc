/**
 * @file
 * Manifest round-trip and schema conformance: a manifest built from a
 * live snapshot must dump to JSON, parse back identically, and satisfy
 * the structural rules of docs/schema/run_manifest.schema.json (the
 * schema file itself is read and cross-checked, so manifest.cc and the
 * schema cannot silently drift apart). Also covers the JSON
 * writer/parser pair on its own, the one summary renderer, and the
 * run-finishing helpers every binary ends with.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "obs/instruments.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/registry.hpp"
#include "util/thread_pool.hpp"

#ifndef COPRA_REPO_ROOT
#error "COPRA_REPO_ROOT must point at the source tree"
#endif

namespace copra::obs {
namespace {

class ObsManifestTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Registry::instance().reset();
        setEnabled(true);
    }

    void
    TearDown() override
    {
        setEnabled(false);
        Registry::instance().reset();
    }
};

Json
loadSchema()
{
    std::ifstream in(std::string(COPRA_REPO_ROOT) +
                     "/docs/schema/run_manifest.schema.json");
    EXPECT_TRUE(in.good()) << "schema file missing";
    std::ostringstream slurp;
    slurp << in.rdbuf();
    return Json::parse(slurp.str());
}

Json
sampleManifest()
{
    count(ids().simRunBranches, 123456);
    count(ids().simRunMispredicts, 789);
    gaugeMax(ids().poolWorkerCount, 4);
    observe(ids().benchSuiteWallSeconds, 1.25);
    RunInfo info;
    info.tool = "obs_manifest_test";
    info.args = "--branches 1000";
    info.seed = 42;
    info.threads = 4;
    return buildManifest(info, Registry::instance().snapshot());
}

TEST_F(ObsManifestTest, JsonRoundTripsThroughDumpAndParse)
{
    Json manifest = sampleManifest();
    std::string once = manifest.dump(2);
    std::string twice = Json::parse(once).dump(2);
    EXPECT_EQ(once, twice);
}

TEST_F(ObsManifestTest, ManifestCarriesRequiredSchemaFields)
{
    Json schema = loadSchema();
    Json manifest = sampleManifest();

    // Every field the schema declares required must be present...
    for (const Json &req : schema.at("required").items()) {
        EXPECT_NE(manifest.find(req.asString()), nullptr)
            << "manifest missing required field " << req.asString();
    }
    // ...and the manifest must not invent fields the schema does not
    // know (additionalProperties: false).
    std::set<std::string> known;
    for (const auto &[name, value] : schema.at("properties").entries())
        known.insert(name);
    for (const auto &[name, value] : manifest.entries())
        EXPECT_TRUE(known.count(name))
            << "manifest field " << name << " absent from schema";

    EXPECT_EQ(static_cast<int>(
                  manifest.at("schema_version").asNumber()),
              kManifestSchemaVersion);
    EXPECT_EQ(manifest.at("tool").asString(), "obs_manifest_test");
    EXPECT_EQ(manifest.at("seed").asNumber(), 42.0);
    EXPECT_EQ(manifest.at("threads").asNumber(), 4.0);
}

TEST_F(ObsManifestTest, InstrumentEntriesMatchSchemaShape)
{
    Json schema = loadSchema();
    const Json &item_schema =
        schema.at("properties").at("instruments").at("items");
    std::set<std::string> known;
    for (const auto &[name, value] :
         item_schema.at("properties").entries())
        known.insert(name);
    std::set<std::string> types;
    for (const Json &t :
         item_schema.at("properties").at("type").at("enum").items())
        types.insert(t.asString());

    Json manifest = sampleManifest();
    size_t entries = 0;
    for (const Json &entry : manifest.at("instruments").items()) {
        ++entries;
        for (const auto &[name, value] : entry.entries())
            EXPECT_TRUE(known.count(name))
                << "instrument field " << name
                << " absent from schema";
        EXPECT_TRUE(types.count(entry.at("type").asString()));
        if (entry.at("type").asString() == "histogram") {
            EXPECT_NE(entry.find("count"), nullptr);
            EXPECT_NE(entry.find("sum"), nullptr);
            EXPECT_EQ(entry.find("value"), nullptr);
        } else {
            EXPECT_NE(entry.find("value"), nullptr);
            EXPECT_EQ(entry.find("count"), nullptr);
        }
    }
    // One entry per cataloged instrument, in catalog order.
    EXPECT_EQ(entries, instrumentCatalog().size());
}

TEST_F(ObsManifestTest, ValuesSurviveTheRoundTrip)
{
    Json manifest = sampleManifest();
    Json reparsed = Json::parse(manifest.dump(2));
    bool found = false;
    for (const Json &entry : reparsed.at("instruments").items()) {
        if (entry.at("key").asString() != "sim.run.branches")
            continue;
        found = true;
        EXPECT_EQ(entry.at("value").asNumber(), 123456.0);
    }
    EXPECT_TRUE(found);
}

TEST_F(ObsManifestTest, FinishRunWritesALoadableManifest)
{
    count(ids().traceCacheHit, 7);
    RunInfo info;
    info.tool = "obs_manifest_test";
    info.seed = 1;
    info.threads = 2;
    std::string path = ::testing::TempDir() + "obs_manifest_test.json";
    std::remove(path.c_str());
    finishRun(info, path, false);
    Json loaded = loadManifest(path);
    EXPECT_EQ(loaded.at("tool").asString(), "obs_manifest_test");
    EXPECT_EQ(loaded.at("threads").asNumber(), 2.0);
}

TEST_F(ObsManifestTest, FinishRunIsANoOpWhenTelemetryIsOff)
{
    setEnabled(false);
    std::string path = ::testing::TempDir() + "obs_manifest_off.json";
    std::remove(path.c_str());
    ::testing::internal::CaptureStderr();
    finishRun(RunInfo{}, path, true);
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
    EXPECT_FALSE(std::ifstream(path).good());
}

TEST_F(ObsManifestTest, SummaryAndManifestFileShowTheSameRows)
{
    count(ids().simRunBranches, 5000);
    observe(ids().benchSuiteWallSeconds, 0.1);
    std::string path = ::testing::TempDir() + "obs_manifest_summary.json";
    ::testing::internal::CaptureStderr();
    finishRun(RunInfo{}, path, true);
    std::string printed = ::testing::internal::GetCapturedStderr();
    // --metrics-summary and `copra_report --summary` on the written
    // file print the same instrument rows under their own headers.
    EXPECT_EQ(printed, "metrics summary (non-zero instruments)\n" +
                           renderSummary(loadManifest(path)));
}

TEST_F(ObsManifestTest, RunInfoRecordsThePoolOnlyWhenOneRan)
{
    char tool[] = "tool";
    char flag[] = "--branches";
    char value[] = "1000";
    char *argv[] = {tool, flag, value};
    RunInfo serial = runInfo("obs_manifest_test", 3, argv, 9, false);
    EXPECT_EQ(serial.tool, "obs_manifest_test");
    EXPECT_EQ(serial.args, "--branches 1000");
    EXPECT_EQ(serial.seed, 9u);
    EXPECT_EQ(serial.threads, 0u);

    RunInfo pooled = runInfo("obs_manifest_test", 1, argv, 9, true);
    EXPECT_EQ(pooled.args, "");
    EXPECT_EQ(pooled.threads, globalPool().size());
    EXPECT_GE(pooled.threads, 1u);

    // The schema's "no pool" value survives into the manifest.
    Json manifest = buildManifest(serial, Registry::instance().snapshot());
    EXPECT_EQ(manifest.at("threads").asNumber(), 0.0);
}

TEST_F(ObsManifestTest, SummarySkipsZeroRowsAndSurvivesTheRoundTrip)
{
    // Non-zero counter and histogram; sim.run.mispredicts (counter)
    // and sim.phase.oracle.seconds (histogram) stay zero/empty.
    count(ids().simRunBranches, 123456);
    observe(ids().benchSuiteWallSeconds, 1.0 / 3.0);
    observe(ids().benchSuiteWallSeconds, 2.5);
    Json manifest = buildManifest(RunInfo{}, Registry::instance().snapshot());
    std::string table = renderSummary(manifest);

    EXPECT_NE(table.find("  sim.run.branches "), std::string::npos);
    EXPECT_NE(table.find(" 123456 branches\n"), std::string::npos)
        << table;
    EXPECT_NE(table.find("bench.suite.wall_seconds"), std::string::npos);
    EXPECT_NE(table.find("2 samples  sum=2.83333"), std::string::npos)
        << table;
    EXPECT_EQ(table.find("sim.run.mispredicts"), std::string::npos);
    EXPECT_EQ(table.find("sim.phase.oracle.seconds"), std::string::npos);
    EXPECT_EQ(std::count(table.begin(), table.end(), '\n'), 2);

    // copra_report --summary renders a manifest parsed back from disk.
    EXPECT_EQ(renderSummary(Json::parse(manifest.dump(2))), table);
}

TEST_F(ObsManifestTest, LoadRejectsNonManifests)
{
    std::string path = ::testing::TempDir() + "obs_not_manifest.json";
    {
        std::ofstream out(path, std::ios::trunc);
        out << "{\"hello\": 1}";
    }
    EXPECT_THROW(loadManifest(path), std::runtime_error);
    EXPECT_THROW(loadManifest(path + ".does-not-exist"),
                 std::runtime_error);
}

TEST_F(ObsManifestTest, ParserRejectsMalformedJson)
{
    EXPECT_THROW(Json::parse("{\"a\": }"), std::runtime_error);
    EXPECT_THROW(Json::parse("[1, 2"), std::runtime_error);
    EXPECT_THROW(Json::parse(""), std::runtime_error);
    EXPECT_THROW(Json::parse("{} trailing"), std::runtime_error);
}

} // namespace
} // namespace copra::obs
