#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <ostream>
#include <set>
#include <stdexcept>
#include <streambuf>

#include "core/best_of.hpp"
#include "core/candidates.hpp"
#include "core/characterize.hpp"
#include "core/h2p.hpp"
#include "core/oracle.hpp"
#include "core/pa_class.hpp"
#include "predictor/factory.hpp"
#include "sim/driver.hpp"
#include "sim/ledger.hpp"
#include "support.hpp"
#include "trace/trace_io.hpp"
#include "workload/frontier.hpp"
#include "workload/profiles.hpp"

namespace copra::bench {

namespace fs = std::filesystem;

namespace {

// The paper's geometry (ExperimentConfig defaults): depth-16 history
// window, 14 candidates, selective sets of 1..3, PAs/IF-PAs history 12.
constexpr unsigned kOracleDepth = 16;
constexpr unsigned kOraclePool = 14;
constexpr unsigned kPaHistory = 12;

/** A factory spec and the span its sim::run call is recorded under. */
struct Spec
{
    const char *spec;
    const char *span;
};

constexpr Spec kTwoLevelSpecs[] = {
    {"gshare", "sim.run.gshare"}, {"pas", "sim.run.pas"},
    {"gag", "sim.run.gag"},       {"gas", "sim.run.gas"},
    {"bimodal", "sim.run.bimodal"},
};
constexpr Spec kOracleSpecs[] = {
    {"gshare", "sim.run.gshare"},
    {"pas", "sim.run.pas"},
    {"ifgshare", "sim.run.ifgshare"},
};
constexpr Spec kModernSpecs[] = {
    {"tage", "sim.run.tage"},
    {"perceptron", "sim.run.perceptron"},
    {"tournament", "sim.run.tournament"},
    {"gshare", "sim.run.gshare"},
};

sim::Ledger
simulate(const trace::Trace &trace, const Spec &spec, SpanBuffer *spans)
{
    Span span(spans, spec.span);
    predictor::PredictorPtr pred = predictor::makePredictor(spec.spec);
    sim::Ledger ledger;
    sim::run(trace, *pred, &ledger);
    span.work(trace.conditionalCount());
    return ledger;
}

/** Fold a ledger into @p d in pc order (the table itself is unordered). */
void
addLedger(Digest &d, const sim::Ledger &ledger)
{
    std::vector<std::pair<uint64_t, sim::BranchTally>> rows(
        ledger.table().begin(), ledger.table().end());
    std::sort(rows.begin(), rows.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    d.u64(rows.size());
    for (const auto &[pc, tally] : rows) {
        d.u64(pc);
        d.u64(tally.execs);
        d.u64(tally.correct);
        d.u64(tally.taken);
    }
}

void
addSplit(Digest &d, const core::BestOfSplit &split)
{
    d.real(split.fracA);
    d.real(split.fracB);
    d.real(split.fracStatic);
    d.real(split.staticBiasedFraction);
}

/** The paper's published row, or nullptr for frontier families. */
const workload::PaperReference *
paperRow(const std::string &name)
{
    const auto &paper = workload::benchmarkNames();
    if (std::find(paper.begin(), paper.end(), name) == paper.end())
        return nullptr;
    return &workload::paperReference(name);
}

void
addGap(JobResult &r, double simulated, double published)
{
    r.gapSum += std::fabs(simulated - published);
    ++r.gapTerms;
}

/** Digest of a trace's serialized bytes. Both sides of a comparison go
 * through the same writer, so equal digests mean equal traces. */
uint64_t
contentDigest(const trace::Trace &trace)
{
    struct DigestBuf : std::streambuf
    {
        Digest digest;
        int_type
        overflow(int_type c) override
        {
            if (c != traits_type::eof()) {
                char ch = traits_type::to_char_type(c);
                digest.bytes(&ch, 1);
            }
            return traits_type::not_eof(c);
        }
        std::streamsize
        xsputn(const char *s, std::streamsize n) override
        {
            digest.bytes(s, static_cast<size_t>(n));
            return n;
        }
    } buf;
    std::ostream os(&buf);
    trace::writeBinary(trace, os);
    return buf.digest.value();
}

uint64_t
fileBytes(const std::string &path)
{
    std::error_code ec;
    uint64_t size = fs::file_size(path, ec);
    return ec ? 0 : size;
}

JobResult
twoLevelJob(const trace::Trace &trace, SpanBuffer *spans)
{
    std::vector<sim::Ledger> ledgers;
    for (const Spec &spec : kTwoLevelSpecs)
        ledgers.push_back(simulate(trace, spec, spans));
    const sim::Ledger &gshare = ledgers[0];
    const sim::Ledger &pas = ledgers[1];

    core::BestOfSplit fig7;
    std::vector<std::pair<double, double>> fig9;
    {
        Span span(spans, "core.best_of");
        fig7 = core::bestOfSplit(gshare, pas, core::idealStaticLedger(gshare));
        fig9 = core::accuracyDifference(gshare, pas).curve(5.0);
    }

    Digest d;
    for (const sim::Ledger &ledger : ledgers)
        addLedger(d, ledger);
    addSplit(d, fig7);
    for (const auto &[percentile, value] : fig9)
        d.real(value);

    JobResult result;
    result.digest = d.value();
    if (const workload::PaperReference *ref = paperRow(trace.name())) {
        addGap(result, gshare.accuracyPercent(), ref->gshare);
        addGap(result, pas.accuracyPercent(), ref->pas);
    }
    return result;
}

JobResult
oracleJob(const trace::Trace &trace, const Budget &budget, SpanBuffer *spans)
{
    sim::Ledger gshare = simulate(trace, kOracleSpecs[0], spans);
    sim::Ledger pas = simulate(trace, kOracleSpecs[1], spans);
    sim::Ledger ifGshare = simulate(trace, kOracleSpecs[2], spans);

    core::OracleConfig config;
    config.historyDepth = kOracleDepth;
    config.candidatePool = kOraclePool;
    config.maxSelect = 3;
    config.mineConditionals = budget.mine;
    auto oracle = [&] {
        Span span(spans, "core.oracle");
        span.work(trace.conditionalCount());
        return core::SelectiveOracle(trace, config);
    }();
    auto classifier = [&] {
        Span span(spans, "core.pa_classifier");
        span.work(trace.conditionalCount());
        return core::PaClassifier(trace, kPaHistory);
    }();

    // Table 2 and Table 3 columns, in paperReference order, then Fig. 8.
    double columns[8];
    core::BestOfSplit fig8;
    {
        Span span(spans, "core.best_of");
        sim::Ledger selective1 = oracle.toLedger(1);
        sim::Ledger ifPas = classifier.ifPasLedger();
        columns[0] = gshare.accuracyPercent();
        columns[1] = sim::bestOfAccuracyPercent(gshare, selective1);
        columns[2] = ifGshare.accuracyPercent();
        columns[3] = sim::bestOfAccuracyPercent(ifGshare, selective1);
        columns[4] = pas.accuracyPercent();
        columns[5] = classifier.loopEnhancedAccuracyPercent(pas);
        columns[6] = ifPas.accuracyPercent();
        columns[7] = classifier.loopEnhancedAccuracyPercent(ifPas);
        fig8 = core::bestOfSplit(
            core::maxLedger(ifGshare, oracle.toLedger(3)),
            classifier.bestPaLedger(), core::idealStaticLedger(gshare));
    }

    Digest d;
    addLedger(d, gshare);
    addLedger(d, pas);
    addLedger(d, ifGshare);
    std::vector<const core::BranchSelection *> selections;
    for (const auto &entry : oracle.branches())
        selections.push_back(&entry.second);
    std::sort(selections.begin(), selections.end(),
              [](const auto *a, const auto *b) { return a->pc < b->pc; });
    for (const core::BranchSelection *sel : selections) {
        d.u64(sel->pc);
        d.u64(sel->execs);
        d.u64(sel->taken);
        for (unsigned s = 0; s < 3; ++s) {
            d.u64(sel->correct[s]);
            d.u64(sel->chosen[s].size());
            for (const core::Tag &tag : sel->chosen[s])
                d.u64(tag.packed);
        }
    }
    for (double fraction : classifier.classFractions())
        d.real(fraction);
    d.real(classifier.staticBucketBiasFraction());
    for (double column : columns)
        d.real(column);
    addSplit(d, fig8);

    JobResult result;
    result.digest = d.value();
    if (const workload::PaperReference *ref = paperRow(trace.name())) {
        const double published[8] = {
            ref->gshare, ref->gshareWithCorr, ref->ifGshare,
            ref->ifGshareWithCorr, ref->pas, ref->pasWithLoop,
            ref->ifPas, ref->ifPasWithLoop};
        for (int i = 0; i < 8; ++i)
            addGap(result, columns[i], published[i]);
    }
    return result;
}

JobResult
modernJob(const trace::Trace &trace, SpanBuffer *spans)
{
    std::vector<sim::Ledger> ledgers;
    for (const Spec &spec : kModernSpecs)
        ledgers.push_back(simulate(trace, spec, spans));

    core::H2pReport h2p;
    core::MispredictCdf cdf;
    {
        Span span(spans, "core.h2p");
        sim::Ledger best = core::bestPerBranchLedger(
            {&ledgers[0], &ledgers[1], &ledgers[2], &ledgers[3]});
        h2p = core::identifyH2p(best);
        cdf = core::mispredictCdf(best);
    }

    Digest d;
    for (const sim::Ledger &ledger : ledgers)
        addLedger(d, ledger);
    for (const core::H2pBranch &branch : h2p.branches) {
        d.u64(branch.pc);
        d.u64(branch.execs);
        d.u64(branch.mispredicts);
    }
    d.u64(h2p.totalMispredicts);
    d.u64(h2p.h2pMispredicts);
    d.u64(cdf.totalMispredicts);
    d.real(cdf.fractionFromTopPercent(1.0));
    d.real(cdf.fractionFromTopPercent(10.0));

    JobResult result;
    result.digest = d.value();
    if (const workload::PaperReference *ref = paperRow(trace.name()))
        addGap(result, ledgers[3].accuracyPercent(), ref->gshare);
    return result;
}

JobResult
coldJob(const RunContext &ctx, size_t index, SpanBuffer *spans)
{
    trace::TraceCacheKey key = ctx.key(index);
    uint64_t bytes = fileBytes(ctx.coldCache.pathFor(key));
    auto trace = [&] {
        Span span(spans, "trace.load");
        std::optional<trace::Trace> loaded = ctx.coldCache.load(key);
        if (!loaded)
            throw std::runtime_error("cold cache miss: " + key.fileName());
        span.work(loaded->conditionalCount(), bytes);
        return std::move(*loaded);
    }();
    auto fp = [&] {
        Span span(spans, "core.characterize");
        span.work(trace.conditionalCount());
        return core::characterizeTrace(trace, core::CharacterizeOptions{});
    }();

    Digest d;
    d.str(fp.name);
    d.str(fp.family);
    d.u64(fp.seed);
    d.u64(fp.records);
    d.u64(fp.conditionals);
    d.u64(fp.staticBranches);
    d.real(fp.takenRate);
    d.real(fp.biasedFraction99);
    for (const core::HistoryEntropyPoint &point : fp.curve) {
        d.u64(point.depth);
        d.real(point.globalBits);
        d.real(point.localBits);
    }
    d.real(fp.gshareAccuracyPercent);
    d.u64(fp.h2pBranches);
    d.real(fp.h2pStaticFraction);
    d.real(fp.h2pMispredictFraction);

    JobResult result;
    result.digest = d.value();
    if (const workload::PaperReference *ref = paperRow(fp.name))
        addGap(result, fp.gshareAccuracyPercent, ref->gshare);
    return result;
}

double
secondsSince(int64_t startNs)
{
    return static_cast<double>(nowNs() - startNs) * 1e-9;
}

} // namespace

const std::vector<WorkloadInfo> &
workloads()
{
    // Budgets and iteration counts are fixed here, not on the command
    // line, so two commits always do identical work. Full budgets keep
    // every iteration short enough that a run collects many samples. The
    // nominal iteration times are round figures at or under the median
    // iteration times measured on a 4-core VM, so a run measures about
    // --seconds on a quiet host and longer on a busy one.
    static const std::vector<WorkloadInfo> all = {
        {"twolevel", WorkloadKind::TwoLevel, {2'000'000, 0, 5},
         {20'000, 0, 1}, 0.3},
        {"oracle", WorkloadKind::Oracle, {250'000, 125'000, 15},
         {20'000, 20'000, 1}, 1.1},
        {"modern", WorkloadKind::Modern, {1'000'000, 0, 5},
         {20'000, 0, 1}, 1.6},
        {"cold_characterize", WorkloadKind::ColdCharacterize,
         {1'000'000, 0, 5}, {20'000, 0, 1}, 0.7},
    };
    return all;
}

size_t
timedIterations(const WorkloadInfo &w, double seconds)
{
    return std::max<size_t>(
        3, static_cast<size_t>(std::lround(seconds / w.nominalIterationSeconds)));
}

const WorkloadInfo *
findWorkload(const std::string &name)
{
    for (const WorkloadInfo &w : workloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

void
warmCache(const RunContext &ctx)
{
    std::set<std::string> keep;
    for (const WorkloadInfo &w : workloads()) {
        if (w.kind == WorkloadKind::ColdCharacterize)
            continue;
        for (const Budget &b : {w.full, w.smoke})
            for (const std::string &name : ctx.names)
                keep.insert(ctx.warmCache.pathFor({name, b.branches, ctx.seed}));
    }
    std::error_code ec;
    if (fs::is_directory(ctx.warmCache.dir(), ec))
        for (const auto &entry : fs::directory_iterator(ctx.warmCache.dir()))
            if (!keep.count(entry.path().string()))
                fs::remove_all(entry.path(), ec);

    for (size_t i = 0; i < ctx.names.size(); ++i) {
        trace::TraceCacheKey key = ctx.key(i);
        if (fs::exists(ctx.warmCache.pathFor(key)))
            continue;
        trace::Trace generated =
            workload::makeBenchmarkTrace(key.benchmark, key.branches, key.seed);
        if (!ctx.warmCache.store(key, generated))
            throw std::runtime_error("cannot store " + key.fileName());
    }
}

double
setupRep(RunContext &ctx, bool verify, SpanBuffer *spans)
{
    ctx.resident.clear();
    if (ctx.workload->kind != WorkloadKind::ColdCharacterize) {
        int64_t start = nowNs();
        Span rep(spans, "setup.rep");
        for (size_t i = 0; i < ctx.names.size(); ++i) {
            trace::TraceCacheKey key = ctx.key(i);
            uint64_t bytes = fileBytes(ctx.warmCache.pathFor(key));
            Span span(spans, "trace.load");
            std::optional<trace::Trace> loaded = ctx.warmCache.load(key);
            if (!loaded)
                throw std::runtime_error("warm cache miss: " + key.fileName());
            span.work(loaded->conditionalCount(), bytes);
            ctx.resident.push_back(std::move(*loaded));
        }
        return secondsSince(start);
    }

    std::error_code ec;
    fs::remove_all(ctx.coldCache.dir(), ec);
    std::vector<trace::Trace> generated;
    int64_t start = nowNs();
    {
        Span rep(spans, "setup.rep");
        for (size_t i = 0; i < ctx.names.size(); ++i) {
            trace::TraceCacheKey key = ctx.key(i);
            {
                Span span(spans, "workload.generate");
                generated.push_back(workload::makeBenchmarkTrace(
                    key.benchmark, key.branches, key.seed));
                span.work(generated.back().conditionalCount());
            }
            Span span(spans, "trace.store");
            if (!ctx.coldCache.store(key, generated.back()))
                throw std::runtime_error("cannot store " + key.fileName());
            span.work(generated.back().conditionalCount(),
                      fileBytes(ctx.coldCache.pathFor(key)));
        }
    }
    double seconds = secondsSince(start);
    if (verify)
        for (size_t i = 0; i < ctx.names.size(); ++i) {
            std::optional<trace::Trace> loaded = ctx.coldCache.load(ctx.key(i));
            if (!loaded ||
                contentDigest(*loaded) != contentDigest(generated[i]))
                throw std::runtime_error("stored trace differs from the "
                                         "generated one: " + ctx.names[i]);
        }
    return seconds;
}

JobResult
runJob(const RunContext &ctx, size_t index, SpanBuffer *spans)
{
    switch (ctx.workload->kind) {
    case WorkloadKind::TwoLevel:
        return twoLevelJob(ctx.resident.at(index), spans);
    case WorkloadKind::Oracle:
        return oracleJob(ctx.resident.at(index), ctx.budget, spans);
    case WorkloadKind::Modern:
        return modernJob(ctx.resident.at(index), spans);
    case WorkloadKind::ColdCharacterize:
        return coldJob(ctx, index, spans);
    }
    throw std::logic_error("unknown workload kind");
}

void
mineOnly(const RunContext &ctx, size_t index, SpanBuffer *spans)
{
    const trace::Trace &trace = ctx.resident.at(index);
    Span span(spans, "core.oracle.mine");
    span.work(std::min<uint64_t>(ctx.budget.mine, trace.conditionalCount()));
    core::CandidateMiner miner(kOracleDepth);
    miner.mine(trace, ctx.budget.mine);
}

} // namespace copra::bench
