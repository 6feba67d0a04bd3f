#include "obs/manifest.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/build_info.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace copra::obs {

namespace {

void
writeManifest(const std::string &path, const Json &manifest)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        warn("metrics: cannot write manifest to " + path);
        return;
    }
    out << manifest.dump(2);
    if (!out.good())
        warn("metrics: short write to " + path);
}

} // namespace

RunInfo
runInfo(const char *tool, int argc, char **argv, uint64_t seed,
        bool ran_pool)
{
    RunInfo info;
    info.tool = tool;
    for (int i = 1; i < argc; ++i) {
        if (i > 1)
            info.args += ' ';
        info.args += argv[i];
    }
    info.seed = seed;
    info.threads = ran_pool ? globalPool().size() : 0;
    return info;
}

Json
buildManifest(const RunInfo &info, const Snapshot &snapshot)
{
    Json root = Json::makeObject();
    root.set("schema_version",
             Json::makeNumber(kManifestSchemaVersion));
    root.set("tool", Json::makeString(info.tool));
    if (!info.args.empty())
        root.set("args", Json::makeString(info.args));
    root.set("git_sha", Json::makeString(kBuildGitSha));
    root.set("build_type", Json::makeString(kBuildType));
    root.set("compiler", Json::makeString(kBuildCompiler));
    root.set("build_flags", Json::makeString(kBuildFlags));
    root.set("threads", Json::makeNumber(info.threads));
    root.set("seed", Json::makeNumber(static_cast<double>(info.seed)));

    const Registry &registry = Registry::instance();
    Json instruments = Json::makeArray();
    for (const InstrumentValue &value : snapshot.values) {
        const InstrumentDesc &desc = registry.describe(value.id);
        Json entry = Json::makeObject();
        entry.set("key", Json::makeString(desc.key));
        entry.set("type", Json::makeString(kindName(desc.kind)));
        entry.set("unit", Json::makeString(desc.unit));
        if (desc.kind == Kind::Histogram) {
            entry.set("count", Json::makeNumber(
                                   static_cast<double>(value.count)));
            entry.set("sum", Json::makeNumber(value.sum));
            entry.set("min", Json::makeNumber(value.min));
            entry.set("max", Json::makeNumber(value.max));
        } else {
            entry.set("value", Json::makeNumber(
                                   static_cast<double>(value.scalar)));
        }
        instruments.push(std::move(entry));
    }
    root.set("instruments", std::move(instruments));
    return root;
}

Json
loadManifest(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open manifest " + path);
    std::ostringstream slurp;
    slurp << in.rdbuf();
    Json manifest = Json::parse(slurp.str());
    const Json *version = manifest.find("schema_version");
    if (version == nullptr || !version->isNumber())
        throw std::runtime_error(path +
                                 " is not a run manifest (no "
                                 "schema_version)");
    return manifest;
}

std::string
renderSummary(const Json &manifest)
{
    std::ostringstream out;
    char line[256];
    for (const Json &entry : manifest.at("instruments").items()) {
        const char *key = entry.at("key").asString().c_str();
        const char *unit = entry.at("unit").asString().c_str();
        const Json *value = entry.find("value");
        if (value != nullptr) {
            if (value->asNumber() == 0.0)
                continue;
            std::snprintf(line, sizeof(line), "  %-34s %12.0f %s\n", key,
                          value->asNumber(), unit);
        } else {
            double count = entry.at("count").asNumber();
            if (count == 0.0)
                continue;
            std::snprintf(line, sizeof(line),
                          "  %-34s %12.0f samples  sum=%-12.6g "
                          "min=%-10.4g max=%-10.4g [%s]\n",
                          key, count, entry.at("sum").asNumber(),
                          entry.at("min").asNumber(),
                          entry.at("max").asNumber(), unit);
        }
        out << line;
    }
    return out.str();
}

void
finishRun(const RunInfo &info, const std::string &metrics_out,
          bool summary)
{
    if (!enabled())
        return;
    Json manifest = buildManifest(info, Registry::instance().snapshot());
    if (!metrics_out.empty())
        writeManifest(metrics_out, manifest);
    if (summary) {
        std::string table = "metrics summary (non-zero instruments)\n" +
                            renderSummary(manifest);
        std::fputs(table.c_str(), stderr);
    }
}

} // namespace copra::obs
