/**
 * @file
 * copra_bench: the end-to-end and per-layer benchmark of copra.
 *
 * One process runs one workload as a closed loop with one client: each
 * iteration fans the workload's eleven jobs (one per suite trace)
 * across a four-thread pool and waits for all of them. It reports
 * set-up time, iteration wall and CPU time, peak memory and the gap
 * between simulated and published accuracy, and checks every job's
 * result digest. See benchmark/README.md.
 *
 *   copra_bench --workload W [--seed N] [--seconds S] [--trace 0|1]
 *               [--trace-out FILE] [--out FILE]
 *   copra_bench --smoke
 *   copra_bench --write-expected
 *   copra_bench compare A.json... -- B.json...
 */

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "compare.hpp"
#include "obs/json.hpp"
#include "spans.hpp"
#include "support.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"
#include "workload/frontier.hpp"
#include "workloads.hpp"

using namespace copra;
using namespace copra::bench;

namespace {

/** Pool size of every run, fixed so all hosts and commits agree. */
constexpr unsigned kThreads = 4;

// Paths relative to the repository root, where run.sh starts the driver.
constexpr const char *kBuildDir = "build-bench";
constexpr const char *kExpectedDir = "benchmark/expected";

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 20.0;
    uint64_t trace = 0;
    std::string traceOut;
    std::string out;
    bool smoke = false;
    bool writeExpected = false;
    uint64_t warmOnly = 0;

    bool tracing() const { return trace != 0 || !traceOut.empty(); }
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** One iteration's host cost. */
struct Iteration
{
    double wall = 0.0;   //!< makespan of the eleven jobs
    double cpu = 0.0;    //!< process CPU over the same interval
    double jobSum = 0.0; //!< sum of the jobs' own durations
};

struct Report
{
    std::string workload;
    uint64_t seed = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<uint64_t> reference; //!< per-job digest every iteration must match
    double paperGap = 0.0; //!< paper_gap_pp: a function of the seed only
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;    //!< the BENCHMARK.json per_layer set
    std::vector<Metric> layerDetail; //!< absolute rows of the layers called
    std::vector<double> setupSamples, wallSamples, cpuSamples;
};

/** Expected digests: "<workload> <trace>" -> digest. */
using Expected = std::map<std::string, uint64_t>;

std::string
expectedFile(bool smoke)
{
    return std::string(kExpectedDir) +
        (smoke ? "/seed0-smoke.txt" : "/seed0-full.txt");
}

Expected
readExpected(const std::string &path)
{
    Expected expected;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string workload, trace, digest;
        if (fields >> workload >> trace >> digest)
            expected[workload + " " + trace] =
                std::stoull(digest, nullptr, 16);
    }
    return expected;
}

double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/** The per-layer metric set of BENCHMARK.json, from the traced run. */
struct LayerInputs
{
    std::map<std::string, LayerTotals> iter, setup, mine;
    double iterations = 0, reps = 0;
    double jobSeconds = 0; //!< mean per-iteration sum of job durations
    double repSeconds = 0; //!< mean set-up rep
    bool cold = false;
};

void
layerMetrics(const LayerInputs &in, Report &r)
{
    auto total = [](const std::map<std::string, LayerTotals> &m,
                    const std::string &name) {
        auto it = m.find(name);
        return it == m.end() ? LayerTotals{} : it->second;
    };
    auto perIter = [&](const std::string &name) {
        return in.iterations ? total(in.iter, name).selfSeconds / in.iterations
                             : 0.0;
    };
    auto perRep = [&](const std::string &name) {
        return in.reps ? total(in.setup, name).selfSeconds / in.reps : 0.0;
    };
    auto share = [](double part, double whole) {
        return whole > 0 ? part / whole : 0.0;
    };

    // Loads are set-up for the warm workloads and iteration work for
    // cold_characterize; either way trace.load.s is one pass over the
    // suite.
    LayerTotals load = total(in.cold ? in.iter : in.setup, "trace.load");
    double passes = in.cold ? in.iterations : in.reps;
    double mine = total(in.mine, "core.oracle.mine").selfSeconds;

    double bytesPerBranch = share(static_cast<double>(load.bytes),
                                  static_cast<double>(load.branches));
    r.perLayer = {
        {"trace.load.s", passes ? load.selfSeconds / passes : 0.0, "s"},
        {"trace.load.mb_per_s",
         share(static_cast<double>(load.bytes) * 1e-6, load.selfSeconds), "MB/s"},
        {"trace.bytes_per_branch", bytesPerBranch, "B/branch"},
        {"core.oracle.mine.share", share(mine, in.jobSeconds), "fraction"},
        {"core.oracle.record_select.share",
         share(perIter("core.oracle") - mine, in.jobSeconds), "fraction"},
    };
    for (const char *layer : {"workload.generate", "trace.store"})
        r.perLayer.push_back({std::string(layer) + ".share",
                              share(perRep(layer), in.repSeconds), "fraction"});
    for (const char *layer :
         {"trace.load", "sim.run.gshare", "sim.run.pas", "sim.run.gag",
          "sim.run.gas", "sim.run.bimodal", "sim.run.ifgshare", "sim.run.tage",
          "sim.run.perceptron", "sim.run.tournament", "core.oracle",
          "core.pa_classifier", "core.characterize", "core.best_of", "core.h2p"})
        r.perLayer.push_back({std::string(layer) + ".share",
                              share(perIter(layer), in.jobSeconds), "fraction"});

    // Absolute rows for the layers this workload calls.
    auto detail = [&](const std::string &name, double seconds,
                      const LayerTotals &t, double count) {
        r.layerDetail.push_back({name + ".s", seconds, "s"});
        if (t.branches && count)
            r.layerDetail.push_back(
                {name + ".ns_per_branch",
                 seconds * 1e9 / (static_cast<double>(t.branches) / count),
                 "ns/branch"});
        if (t.bytes && seconds > 0)
            r.layerDetail.push_back(
                {name + ".mb_per_s",
                 static_cast<double>(t.bytes) * 1e-6 / count / seconds, "MB/s"});
    };
    for (const auto &[name, t] : in.setup)
        if (name != "setup.rep")
            detail(name, perRep(name), t, in.reps);
    for (const auto &[name, t] : in.iter)
        if (name != "job")
            detail(name, perIter(name), t, in.iterations);
    if (!in.mine.empty()) {
        LayerTotals m = total(in.mine, "core.oracle.mine");
        detail("core.oracle.mine", mine, m, 1.0);
        r.layerDetail.push_back(
            {"core.oracle.record_select.s", perIter("core.oracle") - mine, "s"});
    }
    r.layerDetail.push_back({"trace.bytes_per_branch", bytesPerBranch, "B/branch"});
}

RunContext
makeContext(const WorkloadInfo &w, const Options &o, const Budget &budget)
{
    RunContext ctx;
    ctx.workload = &w;
    ctx.budget = budget;
    ctx.seed = o.seed;
    ctx.names = workload::workloadSuiteNames();
    ctx.warmCache = trace::TraceCache(std::string(kBuildDir) + "/cache/warm");
    ctx.coldCache = trace::TraceCache(std::string(kBuildDir) + "/cache/cold");
    return ctx;
}

/**
 * Fill the warm cache from a child process (`--warm-only`). Generating
 * traces leaves tens of MB in the allocator's arenas, which would
 * otherwise show in peak_rss_mb whenever this run, and not an earlier
 * one, had to warm the cache.
 */
bool
warmInChild(const WorkloadInfo &w, const Options &o, const Budget &budget)
{
    std::error_code ec;
    std::string self = std::filesystem::read_symlink("/proc/self/exe", ec);
    std::vector<std::string> args = {
        self, "--warm-only", std::to_string(budget.branches), "--workload",
        w.name, "--seed", std::to_string(o.seed)};
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    argv.push_back(nullptr);
    pid_t pid = 0;
    int status = 0;
    return !ec &&
        posix_spawn(&pid, self.c_str(), nullptr, nullptr, argv.data(),
                    environ) == 0 &&
        waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
        WEXITSTATUS(status) == 0;
}

Report
runWorkload(const WorkloadInfo &w, const Options &o, const Budget &budget,
            const Expected *expected, bool referenceOnly)
{
    Report r;
    r.workload = w.name;
    r.seed = o.seed;

    RunContext ctx = makeContext(w, o, budget);
    const size_t n = ctx.names.size();
    const bool tracing = o.tracing() && !referenceOnly;
    const bool cold = w.kind == WorkloadKind::ColdCharacterize;

    double calibBefore = referenceOnly ? 0.0 : calibrationSeconds();
    if (!cold && !warmInChild(w, o, budget))
        std::fprintf(stderr, "copra_bench: %s: warming the trace cache failed\n",
                     w.name);

    SpanBuffer setupSpans(4 * (n + 1) * budget.setupReps);
    setupSpans.label = "setup";
    setupSpans.thread = threadId();
    std::vector<double> setup;
    for (unsigned rep = 0; rep < budget.setupReps; ++rep) {
        ++r.attempted;
        try {
            setup.push_back(
                setupRep(ctx, rep == 0, tracing ? &setupSpans : nullptr));
        } catch (const std::exception &e) {
            ++r.failed;
            std::fprintf(stderr, "copra_bench: %s setup failed: %s\n", w.name,
                         e.what());
        }
    }

    std::vector<JobResult> results(n);
    std::vector<std::vector<SpanBuffer>> traced;
    auto iterate = [&](bool trace, const std::vector<uint64_t> *check) {
        std::vector<SpanBuffer> buffers;
        if (trace)
            for (size_t i = 0; i < n; ++i) {
                buffers.emplace_back();
                buffers.back().label = "iter" +
                    std::to_string(traced.size()) + " " + ctx.names[i];
            }
        std::vector<double> jobSeconds(n, 0.0);
        std::vector<char> ok(n, 0);
        double cpu0 = processCpuSeconds();
        int64_t start = nowNs();
        parallelFor(globalPool(), n, [&](size_t i) {
            SpanBuffer *spans = trace ? &buffers[i] : nullptr;
            int64_t jobStart = nowNs();
            try {
                if (spans)
                    spans->thread = threadId();
                Span job(spans, "job");
                results[i] = runJob(ctx, i, spans);
                ok[i] = 1;
            } catch (const std::exception &e) {
                std::fprintf(stderr, "copra_bench: %s job %s failed: %s\n",
                             w.name, ctx.names[i].c_str(), e.what());
            }
            jobSeconds[i] = static_cast<double>(nowNs() - jobStart) * 1e-9;
        });
        Iteration it;
        it.wall = static_cast<double>(nowNs() - start) * 1e-9;
        it.cpu = processCpuSeconds() - cpu0;
        for (size_t i = 0; i < n; ++i) {
            it.jobSum += jobSeconds[i];
            ++r.attempted;
            bool match = !check || results[i].digest == (*check)[i];
            if (ok[i] && !match)
                std::fprintf(stderr,
                             "copra_bench: %s job %s digest %s, expected %s\n",
                             w.name, ctx.names[i].c_str(),
                             hex(results[i].digest).c_str(),
                             hex((*check)[i]).c_str());
            if (!ok[i] || !match)
                ++r.failed;
        }
        if (trace)
            traced.push_back(std::move(buffers));
        return it;
    };

    // The first iteration is an untimed warm-up whose digests every
    // later iteration must reproduce; at seed 0 they must also match
    // the committed ones.
    std::vector<uint64_t> pinned;
    if (expected)
        for (const std::string &name : ctx.names) {
            auto it = expected->find(std::string(w.name) + " " + name);
            pinned.push_back(it == expected->end() ? 0 : it->second);
        }
    Iteration first = iterate(false, expected ? &pinned : nullptr);
    double gapSum = 0.0;
    unsigned gapTerms = 0;
    for (const JobResult &result : results) {
        r.reference.push_back(result.digest);
        gapSum += result.gapSum;
        gapTerms += result.gapTerms;
    }
    bool offPin = expected && r.reference != pinned;
    if (expected)
        r.reference = pinned;

    std::vector<Iteration> plain, tracedIters;
    if (referenceOnly) {
        plain.push_back(first);
    } else {
        // The count depends on --seconds and the workload only, so a
        // faster commit does not get more samples to take a median of.
        size_t count = timedIterations(w, o.seconds);
        size_t plainCount = tracing ? (count + 1) / 2 : count;
        for (size_t i = 0; i < plainCount; ++i)
            plain.push_back(iterate(false, &r.reference));
        if (tracing)
            for (size_t i = plainCount; i < std::max<size_t>(count, plainCount + 1);
                 ++i)
                tracedIters.push_back(iterate(true, &r.reference));
    }
    // A run whose results differ from the committed ones measured some
    // other computation, so none of its operations count as done.
    if (offPin)
        r.failed = r.attempted;

    std::vector<SpanBuffer> mineSpans;
    if (tracing && w.kind == WorkloadKind::Oracle && r.failed == 0) {
        mineSpans.resize(n);
        parallelFor(globalPool(), n, [&](size_t i) {
            mineSpans[i].thread = threadId();
            mineSpans[i].label = "mine " + ctx.names[i];
            mineOnly(ctx, i, &mineSpans[i]);
        });
    }

    double peakRss = peakRssMb();
    ctx.resident.clear();
    ctx.resident.shrink_to_fit();
    double drift = referenceOnly ? 0.0 : calibrationSeconds() / calibBefore - 1.0;

    std::vector<double> wall, cpu;
    for (const Iteration &it : plain) {
        wall.push_back(it.wall);
        cpu.push_back(it.cpu);
    }
    r.setupSamples = setup;
    r.wallSamples = wall;
    r.cpuSamples = cpu;
    r.paperGap = gapTerms ? gapSum / gapTerms : 0.0;
    r.endToEnd = {
        {"setup_s", median(setup), "s"},
        {"wall_s", median(wall), "s"},
        {"cpu_s", median(cpu), "s"},
        {"peak_rss_mb", peakRss, "MB"},
    };

    if (tracing) {
        LayerInputs in;
        std::vector<const SpanBuffer *> iterBuffers;
        std::vector<double> jobSums, tracedWall;
        for (const auto &buffers : traced)
            for (const SpanBuffer &b : buffers)
                iterBuffers.push_back(&b);
        for (const Iteration &it : tracedIters) {
            jobSums.push_back(it.jobSum);
            tracedWall.push_back(it.wall);
        }
        std::vector<const SpanBuffer *> mineBuffers;
        for (const SpanBuffer &b : mineSpans)
            mineBuffers.push_back(&b);
        in.iter = layerTotals(iterBuffers);
        in.setup = layerTotals({&setupSpans});
        in.mine = layerTotals(mineBuffers);
        in.iterations = static_cast<double>(tracedIters.size());
        in.reps = static_cast<double>(setup.size());
        in.jobSeconds = mean(jobSums);
        in.repSeconds = mean(setup);
        in.cold = cold;
        layerMetrics(in, r);

        std::vector<double> busy, imbalance;
        for (const Iteration &it : plain) {
            busy.push_back(it.jobSum / (it.wall * kThreads));
            imbalance.push_back(it.wall / (it.jobSum / kThreads));
        }
        std::vector<Metric> common = {
            {"util.pool.busy_frac", median(busy), "fraction"},
            {"util.pool.imbalance", median(imbalance), "ratio"},
            {"bench.trace_overhead_frac", median(tracedWall) / median(wall) - 1.0,
             "fraction"},
            {"host.calib_drift", drift, "fraction"},
        };
        r.perLayer.insert(r.perLayer.end(), common.begin(), common.end());
        r.perLayer.push_back({"paper_gap_pp", r.paperGap, "pp"});
        r.layerDetail.insert(r.layerDetail.end(), common.begin(), common.end());

        std::string path = o.traceOut.empty()
            ? std::string(kBuildDir) + "/traces/" + w.name + ".trace.json"
            : o.traceOut;
        std::vector<const SpanBuffer *> all = {&setupSpans};
        all.insert(all.end(), iterBuffers.begin(), iterBuffers.end());
        all.insert(all.end(), mineBuffers.begin(), mineBuffers.end());
        if (writeChromeTrace(path, all))
            std::fprintf(stderr, "copra_bench: wrote %s\n", path.c_str());
        else
            std::fprintf(stderr, "copra_bench: cannot write %s\n", path.c_str());
    } else if (!referenceOnly) {
        r.endToEnd.push_back({"host.calib_drift", drift, "fraction"});
    }
    return r;
}

uint64_t
workloadDigest(const Report &r)
{
    Digest d;
    for (uint64_t job : r.reference)
        d.u64(job);
    return d.value();
}

void
printHuman(const Report &r, bool tracing)
{
    auto line = [&](const std::string &name, double value, const char *unit) {
        std::printf("%s %s %.9g %s\n", r.workload.c_str(), name.c_str(), value,
                    unit);
    };
    for (const Metric &m : r.endToEnd)
        line(m.name, m.value, m.unit.c_str());
    line("paper_gap_pp", r.paperGap, "pp");
    Quartiles q = quartiles(r.wallSamples);
    line("wall_s.samples", static_cast<double>(r.wallSamples.size()), "count");
    line("wall_s.p25", q.q1, "s");
    line("wall_s.p75", q.q3, "s");
    line("error_rate",
         r.attempted ? static_cast<double>(r.failed) /
                 static_cast<double>(r.attempted)
                     : 1.0,
         "fraction");
    std::printf("%s digest %s hex\n", r.workload.c_str(),
                hex(workloadDigest(r)).c_str());
    if (tracing)
        for (const Metric &m : r.layerDetail)
            std::printf("%s/%s %.9g %s\n", r.workload.c_str(), m.name.c_str(),
                        m.value, m.unit.c_str());
}

obs::Json
metricsJson(const std::vector<Metric> &metrics)
{
    obs::Json out = obs::Json::makeObject();
    for (const Metric &m : metrics) {
        obs::Json entry = obs::Json::makeObject();
        entry.set("value",
                  obs::Json::makeNumber(std::isfinite(m.value) ? m.value : 0.0));
        entry.set("unit", obs::Json::makeString(m.unit));
        out.set(m.name, std::move(entry));
    }
    return out;
}

obs::Json
resultJson(const Report &r, const std::vector<Metric> &metrics)
{
    obs::Json out = obs::Json::makeObject();
    out.set("correct", obs::Json::makeBool(r.failed == 0));
    out.set("attempted", obs::Json::makeNumber(static_cast<double>(r.attempted)));
    out.set("failed", obs::Json::makeNumber(static_cast<double>(r.failed)));
    out.set("metrics", metricsJson(metrics));
    return out;
}

/** The run record `compare` reads: the result plus identity and digest. */
bool
writeRecord(const std::string &path, const Report &r, bool tracing)
{
    std::vector<Metric> metrics = r.endToEnd;
    if (tracing)
        metrics.insert(metrics.end(), r.perLayer.begin(), r.perLayer.end());
    obs::Json record = resultJson(r, metrics);
    record.set("workload", obs::Json::makeString(r.workload));
    record.set("seed", obs::Json::makeNumber(static_cast<double>(r.seed)));
    record.set("digest", obs::Json::makeString(hex(workloadDigest(r))));
    auto samples = [](const std::vector<double> &v) {
        obs::Json array = obs::Json::makeArray();
        for (double x : v)
            array.push(obs::Json::makeNumber(x));
        return array;
    };
    record.set("setup_samples", samples(r.setupSamples));
    record.set("wall_samples", samples(r.wallSamples));
    record.set("cpu_samples", samples(r.cpuSamples));
    std::ofstream out(path, std::ios::trunc);
    out << record.dump(2) << "\n";
    return static_cast<bool>(out);
}

int
writeExpected(Options o)
{
    o.seed = 0;
    for (bool smoke : {false, true}) {
        std::ostringstream text;
        text << "# copra_bench job digests at seed 0 (" << (smoke ? "smoke" : "full")
             << " budget): workload trace digest\n"
             << "# regenerate with: benchmark/run.sh --write-expected\n";
        for (const WorkloadInfo &w : workloads()) {
            Report r = runWorkload(w, o, smoke ? w.smoke : w.full, nullptr, true);
            if (r.failed) {
                std::fprintf(stderr, "copra_bench: %s failed; nothing written\n",
                             w.name);
                return 1;
            }
            const auto &names = workload::workloadSuiteNames();
            for (size_t i = 0; i < names.size(); ++i)
                text << w.name << " " << names[i] << " " << hex(r.reference[i])
                     << "\n";
        }
        std::string path = expectedFile(smoke);
        std::error_code ec;
        std::filesystem::create_directories(kExpectedDir, ec);
        std::ofstream out(path, std::ios::trunc);
        out << text.str();
        if (!out) {
            std::fprintf(stderr, "copra_bench: cannot write %s\n", path.c_str());
            return 1;
        }
        std::fprintf(stderr, "copra_bench: wrote %s\n", path.c_str());
    }
    return 0;
}

int
runSmoke(Options o)
{
    o.seed = 0;
    Expected expected = readExpected(expectedFile(true));
    bool ok = true;
    for (const WorkloadInfo &w : workloads()) {
        Report r = runWorkload(w, o, w.smoke, &expected, true);
        printHuman(r, false);
        ok = ok && r.failed == 0;
    }
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::string(argv[1]) == "compare")
        return runCompare(argc - 2, argv + 2);

    Options o;
    OptionParser parser("copra_bench: end-to-end and per-layer benchmark "
                        "(see benchmark/README.md)");
    parser.addString("workload", &o.workload,
                     "twolevel, oracle, modern or cold_characterize");
    parser.addUint("seed", &o.seed, "workload seed (0 = canonical)");
    parser.addDouble("seconds", &o.seconds,
                     "nominal measuring time; fixes the timed iteration count");
    parser.addUint("trace", &o.trace,
                   "1 = traced run: print the per-layer metrics");
    parser.addString("trace-out", &o.traceOut,
                     "Chrome trace-event JSON path (implies a traced run)");
    parser.addString("out", &o.out, "write the run record for `compare` here");
    parser.addFlag("smoke", &o.smoke,
                   "all workloads at 20k branches, one iteration each");
    parser.addFlag("write-expected", &o.writeExpected,
                   "regenerate the seed-0 expected digests");
    parser.addUint("warm-only", &o.warmOnly,
                   "fill the warm cache at this many branches per trace and "
                   "exit (copra_bench runs itself this way)");
    if (!parser.parse(argc, argv))
        return 0;
    setGlobalPoolThreads(kThreads);

    const WorkloadInfo *w = findWorkload(o.workload);
    if (o.warmOnly && w) {
        Budget budget;
        budget.branches = o.warmOnly;
        try {
            warmCache(makeContext(*w, o, budget));
            return 0;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "copra_bench: %s\n", e.what());
            return 1;
        }
    }
    if (o.writeExpected)
        return writeExpected(o);
    if (o.smoke)
        return runSmoke(o);

    if (!w) {
        std::fprintf(stderr, "copra_bench: unknown --workload '%s'\n",
                     o.workload.c_str());
        return 2;
    }
    Expected expected;
    if (o.seed == 0)
        expected = readExpected(expectedFile(false));
    Report r = runWorkload(*w, o, w->full, o.seed == 0 ? &expected : nullptr,
                           false);
    printHuman(r, o.tracing());
    if (!o.out.empty() && !writeRecord(o.out, r, o.tracing()))
        std::fprintf(stderr, "copra_bench: cannot write %s\n", o.out.c_str());

    std::vector<Metric> metrics;
    if (o.tracing()) {
        metrics = r.perLayer;
    } else {
        for (const Metric &m : r.endToEnd)
            if (m.name != "host.calib_drift")
                metrics.push_back(m);
    }
    std::printf("%s\n", resultJson(r, metrics).dump().c_str());
    std::fflush(stdout);
    return r.failed == 0 ? 0 : 1;
}
