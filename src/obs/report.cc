#include "obs/report.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <vector>

#include "obs/instruments.hpp"
#include "obs/manifest.hpp"
#include "obs/registry.hpp"

namespace copra::obs {

namespace {

/** Integer-or-compact rendering for table cells. */
std::string
formatValue(double v)
{
    char buf[48];
    if (std::nearbyint(v) == v && std::fabs(v) < 1e15)
        std::snprintf(buf, sizeof(buf), "%.0f", v);
    else
        std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

/** The comparable scalar of one manifest instrument entry. */
double
entryValue(const Json &entry)
{
    const Json *value = entry.find("value");
    if (value != nullptr)
        return value->asNumber();
    const Json *sum = entry.find("sum");
    return sum != nullptr ? sum->asNumber() : 0.0;
}

std::string
metaString(const Json &manifest, const char *key)
{
    const Json *value = manifest.find(key);
    if (value == nullptr)
        return "?";
    if (value->isString())
        return value->asString();
    if (value->isNumber())
        return formatValue(value->asNumber());
    return "?";
}

struct DiffRow
{
    std::string key;
    std::string unit;
    std::string type;
    bool inBefore = false;
    bool inAfter = false;
    double before = 0.0;
    double after = 0.0;
};

} // namespace

std::string
diffManifests(const Json &before, const Json &after,
              const DiffOptions &options)
{
    for (const Json *m : {&before, &after}) {
        const Json *version = m->find("schema_version");
        if (version == nullptr || !version->isNumber())
            throw std::runtime_error(
                "diff: document is not a run manifest");
        if (static_cast<int>(version->asNumber()) !=
            kManifestSchemaVersion)
            throw std::runtime_error(
                "diff: manifest schema_version " +
                formatValue(version->asNumber()) +
                " does not match this build (expected " +
                std::to_string(kManifestSchemaVersion) + ")");
    }

    // Union of instruments, in before-order then after-only extras.
    std::vector<DiffRow> rows;
    auto rowFor = [&rows](const std::string &key) -> DiffRow & {
        for (DiffRow &row : rows)
            if (row.key == key)
                return row;
        rows.push_back({});
        rows.back().key = key;
        return rows.back();
    };
    auto fold = [&](const Json &manifest, bool is_before) {
        for (const Json &entry : manifest.at("instruments").items()) {
            DiffRow &row = rowFor(entry.at("key").asString());
            row.unit = entry.at("unit").asString();
            row.type = entry.at("type").asString();
            (is_before ? row.inBefore : row.inAfter) = true;
            (is_before ? row.before : row.after) = entryValue(entry);
        }
    };
    fold(before, true);
    fold(after, false);

    std::ostringstream out;
    out << "# copra run-manifest diff\n\n";
    out << "| | before | after |\n|---|---|---|\n";
    for (const char *key : {"tool", "git_sha", "build_type", "compiler",
                            "threads", "seed"}) {
        out << "| " << key << " | " << metaString(before, key) << " | "
            << metaString(after, key) << " |\n";
    }

    out << "\n## Instruments\n\n"
        << "| instrument | unit | before | after | delta | delta % |\n"
        << "|---|---|---:|---:|---:|---:|\n";
    struct Notable
    {
        std::string text;
        double magnitude = 0.0;
    };
    std::vector<Notable> notable;
    for (const DiffRow &row : rows) {
        if (row.before == 0.0 && row.after == 0.0)
            continue; // both silent: noise in the table, drop it
        double delta = row.after - row.before;
        std::string pct;
        if (!row.inBefore) {
            pct = "new";
        } else if (!row.inAfter) {
            pct = "removed";
        } else if (row.before == 0.0) {
            pct = delta == 0.0 ? "0%" : "n/a";
        } else {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%+.2f%%",
                          100.0 * delta / row.before);
            pct = buf;
        }
        out << "| `" << row.key << "` | " << row.unit << " | "
            << (row.inBefore ? formatValue(row.before) : "-") << " | "
            << (row.inAfter ? formatValue(row.after) : "-") << " | "
            << (delta == 0.0 ? "0" : formatValue(delta)) << " | " << pct
            << " |\n";

        if (row.inBefore && row.inAfter && row.before != 0.0) {
            double rel = delta / row.before;
            if (std::fabs(rel) >= options.threshold) {
                char buf[160];
                std::snprintf(buf, sizeof(buf),
                              "- `%s`: %+.2f%% (%s -> %s %s)",
                              row.key.c_str(), 100.0 * rel,
                              formatValue(row.before).c_str(),
                              formatValue(row.after).c_str(),
                              row.unit.c_str());
                notable.push_back({buf, std::fabs(rel)});
            }
        }
    }

    char threshold[32];
    std::snprintf(threshold, sizeof(threshold), "%g%%",
                  100.0 * options.threshold);
    out << "\n## Notable changes (>= " << threshold << ")\n\n";
    if (notable.empty()) {
        out << "None.\n";
    } else {
        for (const Notable &n : notable)
            out << n.text << "\n";
        out << "\nTiming-valued instruments (seconds, microseconds) "
               "vary run to run; treat their deltas as indicative, "
               "not exact.\n";
    }
    return out.str();
}

std::string
renderRegistryDoc()
{
    const std::vector<InstrumentDesc> &catalog = instrumentCatalog();

    // Modules in first-appearance (catalog) order.
    std::vector<std::string> modules;
    for (const InstrumentDesc &desc : catalog) {
        bool seen = false;
        for (const std::string &m : modules)
            seen = seen || m == desc.module;
        if (!seen)
            modules.emplace_back(desc.module);
    }

    std::ostringstream out;
    out << "# copra metrics reference\n\n"
        << "<!-- Generated by `copra_report --doc-registry`. Do not "
           "edit by hand:\n"
           "     the `metrics_doc_drift` ctest gate regenerates this "
           "file from the\n"
           "     live instrument registry and fails the build on any "
           "drift. -->\n\n"
        << "Every telemetry instrument the copra binaries can emit, "
           "straight from\n"
        << "the registry catalog (`src/obs/instruments.cc`). Values "
           "land in run\n"
        << "manifests (`--metrics-out`, schema\n"
        << "`docs/schema/run_manifest.schema.json` version "
        << kManifestSchemaVersion << ") and in the\n"
        << "`--metrics-summary` table. See docs/OBSERVABILITY.md for "
           "usage.\n\n"
        << catalog.size() << " instruments across " << modules.size()
        << " modules.\n";

    for (const std::string &module : modules) {
        out << "\n## Module `" << module << "`\n\n"
            << "| key | type | unit | description |\n"
            << "|---|---|---|---|\n";
        for (const InstrumentDesc &desc : catalog) {
            if (module != desc.module)
                continue;
            out << "| `" << desc.key << "` | " << kindName(desc.kind)
                << " | " << desc.unit << " | " << desc.description
                << " |\n";
        }
    }
    return out.str();
}

} // namespace copra::obs
