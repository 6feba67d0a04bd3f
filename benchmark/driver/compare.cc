#include "compare.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "support.hpp"

namespace copra::bench {

namespace {

struct Bound
{
    std::string name;
    std::string unit;
    bool lowerIsBetter = true;
    double bound = 0.0;
};

struct Record
{
    std::string file;
    std::string workload;
    uint64_t seed = 0;
    std::string digest;
    bool correct = false;
    std::map<std::string, double> metrics;
};

obs::Json
readJson(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return obs::Json::parse(text.str());
}

Record
readRecord(const std::string &path)
{
    obs::Json json = readJson(path);
    Record r;
    r.file = path;
    r.workload = json.at("workload").asString();
    r.seed = json.at("seed").asUint();
    r.digest = json.at("digest").asString();
    r.correct = json.at("correct").asBool();
    for (const auto &[name, metric] : json.at("metrics").entries())
        r.metrics[name] = metric.at("value").asNumber();
    return r;
}

/** B's values beat A's: by how much B's median improves, as a sign. */
double
improvement(const Bound &b, double a, double bValue)
{
    return b.lowerIsBetter ? a - bValue : bValue - a;
}

} // namespace

int
runCompare(int argc, char **argv)
{
    std::vector<std::string> files[2];
    int side = 0;
    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--")
            side = 1;
        else
            files[side].push_back(arg);
    }
    if (files[0].empty() || files[1].empty()) {
        std::fprintf(stderr,
                     "usage: copra_bench compare A.json... -- B.json...\n"
                     "  A = parent runs, B = change runs, interleaved and in "
                     "the same order, one --out record per run\n");
        return 2;
    }

    std::vector<Bound> bounds;
    std::map<std::string, std::vector<Record>> runs[2];
    try {
        // Relative to the repository root, where run.sh starts the driver.
        obs::Json bench = readJson("BENCHMARK.json");
        for (const obs::Json &m : bench.at("end_to_end").items())
            bounds.push_back({m.at("name").asString(), m.at("unit").asString(),
                              m.at("better").asString() == "lower",
                              m.at("bound").asNumber()});
        for (int s = 0; s < 2; ++s)
            for (const std::string &path : files[s]) {
                Record r = readRecord(path);
                runs[s][r.workload].push_back(r);
            }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "copra_bench compare: %s\n", e.what());
        return 2;
    }

    bool failed = false;
    double wallBound = 0.0;
    for (const Bound &b : bounds)
        if (b.name == "wall_s")
            wallBound = b.bound;

    // Simulated results must not move: every run of one (workload,
    // seed) has the same digest on both sides.
    std::map<std::pair<std::string, uint64_t>, std::string> digests;
    for (int s = 0; s < 2; ++s)
        for (const auto &[workload, records] : runs[s])
            for (const Record &r : records) {
                if (!r.correct) {
                    std::printf("FAILED run %s (%s)\n", r.file.c_str(),
                                workload.c_str());
                    failed = true;
                }
                auto [it, fresh] =
                    digests.emplace(std::make_pair(workload, r.seed), r.digest);
                if (!fresh && it->second != r.digest) {
                    std::printf("DIGEST MISMATCH %s seed %llu: %s vs %s (%s)\n",
                                workload.c_str(),
                                static_cast<unsigned long long>(r.seed),
                                it->second.c_str(), r.digest.c_str(),
                                r.file.c_str());
                    failed = true;
                }
                auto drift = r.metrics.find("host.calib_drift");
                if (drift != r.metrics.end() &&
                    std::fabs(drift->second) > wallBound)
                    std::printf("DRIFT %s: host.calib_drift %+.3f exceeds the "
                                "wall_s bound %.2f; rerun interleaved\n",
                                r.file.c_str(), drift->second, wallBound);
            }

    std::printf("%-18s %-13s %12s %23s %12s %23s %7s %8s  %s\n", "workload",
                "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]",
                "B wins", "B/A-1", "verdict");
    for (const auto &[workload, aRuns] : runs[0]) {
        auto bIt = runs[1].find(workload);
        if (bIt == runs[1].end())
            continue;
        const std::vector<Record> &bRuns = bIt->second;
        for (const Bound &b : bounds) {
            std::vector<double> va, vb;
            for (const Record &r : aRuns)
                if (r.metrics.count(b.name))
                    va.push_back(r.metrics.at(b.name));
            for (const Record &r : bRuns)
                if (r.metrics.count(b.name))
                    vb.push_back(r.metrics.at(b.name));
            if (va.empty() || vb.empty())
                continue;
            Quartiles qa = quartiles(va), qb = quartiles(vb);
            size_t pairs = std::min(va.size(), vb.size());
            size_t wins = 0;
            for (size_t i = 0; i < pairs; ++i)
                if (improvement(b, va[i], vb[i]) > 0)
                    ++wins;
            double gain = improvement(b, qa.q2, qb.q2);
            double rel = qa.q2 != 0 ? (qb.q2 - qa.q2) / std::fabs(qa.q2) : 0.0;
            double worseBy = b.lowerIsBetter ? rel : -rel;
            auto spread = [](const Quartiles &q) {
                return q.q2 != 0 ? (q.q3 - q.q1) / std::fabs(q.q2) : 0.0;
            };
            bool separated = b.lowerIsBetter
                ? *std::max_element(vb.begin(), vb.end()) <
                    *std::min_element(va.begin(), va.end())
                : *std::min_element(vb.begin(), vb.end()) >
                    *std::max_element(va.begin(), va.end());

            const char *verdict = "unchanged";
            if (wins * 10 >= pairs * 9 && gain > qa.q3 - qa.q1)
                verdict = "better";
            else if (worseBy > b.bound)
                verdict = "worse";
            else if (std::max(spread(qa), spread(qb)) > b.bound && !separated)
                verdict = "unresolved";
            if (std::string(verdict) == "worse")
                failed = true;

            char aRange[64], bRange[64];
            std::snprintf(aRange, sizeof aRange, "[%.4g, %.4g]", qa.q1, qa.q3);
            std::snprintf(bRange, sizeof bRange, "[%.4g, %.4g]", qb.q1, qb.q3);
            std::printf("%-18s %-13s %12.5g %23s %12.5g %23s %3zu/%-3zu %+7.1f%%  %s\n",
                        workload.c_str(), b.name.c_str(), qa.q2, aRange, qb.q2,
                        bRange, wins, pairs, 100.0 * rel, verdict);
        }
    }
    return failed ? 1 : 0;
}

} // namespace copra::bench
