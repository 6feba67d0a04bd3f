#include "check/differential.hpp"

#include <algorithm>
#include <cstdlib>
#include <set>
#include <sstream>

#include "check/fuzz.hpp"
#include "check/ref_models.hpp"
#include "obs/instruments.hpp"
#include "obs/registry.hpp"
#include "predictor/bimodal.hpp"
#include "predictor/block_pattern.hpp"
#include "predictor/loop_predictor.hpp"
#include "predictor/perceptron.hpp"
#include "predictor/tage.hpp"
#include "predictor/tournament.hpp"
#include "predictor/two_level.hpp"
#include "sim/driver.hpp"
#include "util/logging.hpp"

namespace copra::check {

using predictor::PredictorPtr;
using predictor::TwoLevelConfig;
using trace::BranchRecord;
using trace::Trace;

// ---------------------------------------------------------------------------
// Prediction streams

std::vector<uint8_t>
scalarPredictions(const Trace &trace, predictor::Predictor &pred,
                  size_t begin, size_t end)
{
    std::vector<uint8_t> out;
    out.reserve(trace.conditionalCount());
    for (size_t i = begin; i < std::min(end, trace.size()); ++i) {
        BranchRecord rec = trace[i];
        if (!rec.isConditional()) {
            pred.observe(rec);
            continue;
        }
        out.push_back(pred.step(rec, rec.taken) ? 1 : 0);
    }
    return out;
}

std::vector<uint8_t>
soaPredictions(const Trace &trace, predictor::Predictor &pred)
{
    // Mirror sim::run exactly: conditional segments of the column store
    // go through predictUpdateSoa (TwoLevel's hand-written loops, every
    // other class's stepBatch), non-conditionals through observe() in
    // trace order.
    const trace::SoABlocks &soa = trace.soa();
    std::vector<uint8_t> out;
    out.reserve(trace.conditionalCount());
    std::vector<uint8_t> correct;
    size_t pos = 0;
    for (const trace::SoABlocks::Segment &seg : soa.conditionalSegments()) {
        for (; pos < seg.begin; ++pos)
            pred.observe(soa.record(pos));
        if (correct.size() < seg.count)
            correct.resize(seg.count);
        predictor::SoaBatch batch{soa.pc() + seg.begin,
                                  soa.target() + seg.begin,
                                  soa.taken() + seg.begin, seg.count};
        pred.predictUpdateSoa(batch, correct.data());
        const uint8_t *taken = batch.taken;
        for (size_t k = 0; k < seg.count; ++k) {
            bool prediction =
                correct[k] ? taken[k] != 0 : taken[k] == 0;
            out.push_back(prediction ? 1 : 0);
        }
        pos = seg.begin + seg.count;
    }
    for (; pos < soa.size(); ++pos)
        pred.observe(soa.record(pos));
    return out;
}

// ---------------------------------------------------------------------------
// Diffing

namespace {

/** pc of the @p index-th conditional record. */
uint64_t
conditionalPc(const Trace &trace, size_t index)
{
    size_t seen = 0;
    for (const BranchRecord &rec : trace.records()) {
        if (!rec.isConditional())
            continue;
        if (seen == index)
            return rec.pc;
        ++seen;
    }
    return 0;
}

/** Diff two prediction streams; append at most one mismatch. */
void
diffStreams(const Trace &trace, const std::string &pair,
            const std::string &path, const std::vector<uint8_t> &expected,
            const std::vector<uint8_t> &got, std::vector<Mismatch> &out)
{
    size_t n = std::min(expected.size(), got.size());
    for (size_t i = 0; i < n; ++i) {
        if (expected[i] != got[i]) {
            Mismatch m;
            m.pair = pair;
            m.path = path;
            m.index = i;
            m.pc = conditionalPc(trace, i);
            m.expected = expected[i] != 0;
            m.got = got[i] != 0;
            out.push_back(m);
            return;
        }
    }
    if (expected.size() != got.size()) {
        Mismatch m;
        m.pair = pair;
        m.path = path;
        m.index = Mismatch::kAggregate;
        m.detail = "stream length " + std::to_string(got.size()) +
            " != " + std::to_string(expected.size());
        out.push_back(m);
    }
}

uint64_t
correctCount(const Trace &trace, const std::vector<uint8_t> &predictions)
{
    uint64_t n = 0;
    size_t i = 0;
    for (const BranchRecord &rec : trace.records()) {
        if (!rec.isConditional())
            continue;
        if (i < predictions.size() && (predictions[i] != 0) == rec.taken)
            ++n;
        ++i;
    }
    return n;
}

void
aggregateMismatch(const std::string &pair, const std::string &path,
                  uint64_t expected, uint64_t got,
                  std::vector<Mismatch> &out)
{
    if (expected == got)
        return;
    Mismatch m;
    m.pair = pair;
    m.path = path;
    m.index = Mismatch::kAggregate;
    m.detail = "correct count " + std::to_string(got) + " != " +
        std::to_string(expected);
    out.push_back(m);
}

} // namespace

DiffResult
diffPair(const Trace &trace, const CheckPair &pair)
{
    DiffResult result;

    PredictorPtr ref = pair.reference();
    std::vector<uint8_t> want = scalarPredictions(trace, *ref);
    uint64_t want_correct = correctCount(trace, want);

    PredictorPtr scalar = pair.optimized();
    diffStreams(trace, pair.name, "scalar", want,
                scalarPredictions(trace, *scalar), result.mismatches);

    PredictorPtr soa = pair.optimized();
    diffStreams(trace, pair.name, "soa", want,
                soaPredictions(trace, *soa), result.mismatches);

    // The driver itself: aggregate counts must agree with the reference
    // stream even though sim::run only reports totals.
    PredictorPtr driven = pair.optimized();
    sim::RunResult run = sim::run(trace, *driven);
    aggregateMismatch(pair.name, "run", want_correct, run.correct,
                      result.mismatches);
    aggregateMismatch(pair.name, "run", trace.conditionalCount(),
                      run.dynamicBranches, result.mismatches);
    return result;
}

// ---------------------------------------------------------------------------
// Minimizer

namespace {

Trace
rebuild(const Trace &like, const std::vector<BranchRecord> &records)
{
    Trace out(like.name(), like.seed());
    out.reserve(records.size());
    for (const BranchRecord &rec : records)
        out.append(rec);
    return out;
}

} // namespace

Trace
minimizeTrace(const Trace &trace,
              const std::function<bool(const Trace &)> &still_fails,
              unsigned max_rounds)
{
    std::vector<BranchRecord> records;
    records.reserve(trace.size());
    for (const BranchRecord &rec : trace.records())
        records.push_back(rec);
    size_t chunk = std::max<size_t>(1, records.size() / 2);
    unsigned rounds = 0;
    while (rounds < max_rounds) {
        ++rounds;
        bool removed = false;
        size_t pos = 0;
        while (pos < records.size()) {
            size_t len = std::min(chunk, records.size() - pos);
            std::vector<BranchRecord> candidate;
            candidate.reserve(records.size() - len);
            candidate.insert(candidate.end(), records.begin(),
                             records.begin() +
                                 static_cast<ptrdiff_t>(pos));
            candidate.insert(candidate.end(),
                             records.begin() +
                                 static_cast<ptrdiff_t>(pos + len),
                             records.end());
            obs::count(obs::ids().checkDiffShrinkSteps);
            if (still_fails(rebuild(trace, candidate))) {
                records = std::move(candidate);
                removed = true;
                // Keep pos: the next chunk has slid into this position.
            } else {
                pos += len;
            }
        }
        if (!removed) {
            if (chunk == 1)
                break; // single-record granularity and nothing removable
            chunk = std::max<size_t>(1, chunk / 2);
        }
    }
    return rebuild(trace, records);
}

// ---------------------------------------------------------------------------
// Pair roster

namespace {

CheckPair
twoLevelPair(const TwoLevelConfig &config)
{
    return {config.label,
            [config] { return std::make_unique<predictor::TwoLevel>(config); },
            [config] { return std::make_unique<RefTwoLevel>(config); }};
}

/**
 * The small-geometry TAGE used by the default pairs and the allocation
 * self-test: tiny tables so fuzzed tag aliasing lands, a short aging
 * period so the use-bit halving path runs inside a 2000-branch trace.
 */
predictor::TageConfig
smallTageConfig()
{
    predictor::TageConfig config;
    config.baseBits = 6;
    config.tableBits = 5;
    config.tagBits = 5;
    config.numTables = 4;
    config.minHistory = 3;
    config.maxHistory = 20;
    config.agingPeriod = 512;
    config.label = "tage(small)";
    return config;
}

/** Small hashed perceptron for the pairs and the wraparound self-test:
 * a tight threshold counter so adaptation fires within one fuzz trace,
 * and narrow weight rails so saturation (the path the wrap bug lives
 * on) is reached routinely instead of needing 64 unidirectional
 * trainings of one weight. */
predictor::PerceptronConfig
smallPerceptronConfig()
{
    predictor::PerceptronConfig config;
    config.tableBits = 6;
    config.numTables = 4;
    config.segmentBits = 5;
    config.weightMin = -8;
    config.weightMax = 7;
    config.initialTheta = 8;
    config.thetaCounterSat = 32;
    config.label = "perceptron(small)";
    return config;
}

/** Small tournament with a 2-set 2-way BTB: misses and evictions are
 * constant under fuzz, so the miss model is differentially visible. */
predictor::TournamentConfig
smallTournamentConfig()
{
    predictor::TournamentConfig config;
    config.globalHistory = 5;
    config.localHistory = 5;
    config.localBhtBits = 4;
    config.localSelectBits = 2;
    config.chooserBits = 4;
    config.btb = predictor::BtbConfig::finite(2, 2);
    config.returnStackDepth = 4;
    config.label = "tournament(small)";
    return config;
}

} // namespace

std::vector<CheckPair>
defaultCheckPairs()
{
    std::vector<CheckPair> pairs;

    // Two-level family. Small geometries on purpose: fuzzed aliasing
    // must actually collide for index arithmetic to be exercised.
    pairs.push_back(twoLevelPair(TwoLevelConfig::gshare(8)));
    pairs.push_back(twoLevelPair(TwoLevelConfig::gshare(16)));
    {
        TwoLevelConfig narrow = TwoLevelConfig::gshare(6);
        narrow.counterBits = 1;
        narrow.label = "gshare(h=6,cbits=1)";
        pairs.push_back(twoLevelPair(narrow));
        TwoLevelConfig wide = TwoLevelConfig::gshare(6);
        wide.counterBits = 3;
        wide.label = "gshare(h=6,cbits=3)";
        pairs.push_back(twoLevelPair(wide));
    }
    pairs.push_back(twoLevelPair(TwoLevelConfig::gag(7)));
    pairs.push_back(twoLevelPair(TwoLevelConfig::gas(5, 3)));
    pairs.push_back(twoLevelPair(TwoLevelConfig::pas(7, 5, 3)));
    pairs.push_back(twoLevelPair(TwoLevelConfig::pag(6, 4)));
    {
        // Per-address Xor has no factory name; without it one of the
        // six scope x index loops would go undiffed.
        TwoLevelConfig pshare = TwoLevelConfig::pag(6, 4);
        pshare.index = TwoLevelConfig::Index::Xor;
        pshare.label = "pshare(h=6,bht=4)";
        pairs.push_back(twoLevelPair(pshare));
    }

    pairs.push_back(
        {"bimodal(6b)",
         [] { return std::make_unique<predictor::Bimodal>(6); },
         [] { return std::make_unique<RefBimodal>(6); }});

    pairs.push_back(
        {"loop",
         [] { return std::make_unique<predictor::LoopPredictor>(); },
         [] { return std::make_unique<RefLoop>(); }});

    pairs.push_back(
        {"block-pattern",
         [] { return std::make_unique<predictor::BlockPatternPredictor>(); },
         [] { return std::make_unique<RefBlockPattern>(); }});

    // Modern roster, small geometries (see the config helpers above).
    {
        predictor::TageConfig config = smallTageConfig();
        pairs.push_back(
            {config.label,
             [config] { return std::make_unique<predictor::Tage>(config); },
             [config] { return std::make_unique<RefTage>(config); }});
    }
    {
        predictor::PerceptronConfig config = smallPerceptronConfig();
        pairs.push_back(
            {config.label,
             [config] {
                 return std::make_unique<predictor::Perceptron>(config);
             },
             [config] { return std::make_unique<RefPerceptron>(config); }});
    }
    // Long histories: the small geometries above stop at 20 bits, so
    // these are the pairs that take the folds past the 64-bit word
    // boundary (fold()'s second-word path, the tracked registers'
    // outgoing-bit read at age >= 64) against refFold.
    {
        predictor::TageConfig config; // default geometry, hmax = 80
        config.label = "tage(default)";
        pairs.push_back(
            {config.label,
             [config] { return std::make_unique<predictor::Tage>(config); },
             [config] { return std::make_unique<RefTage>(config); }});
    }
    {
        predictor::PerceptronConfig config = smallPerceptronConfig();
        config.numTables = 16;
        config.segmentBits = 8; // 15 segments = 120 history bits
        config.label = "perceptron(long)";
        pairs.push_back(
            {config.label,
             [config] {
                 return std::make_unique<predictor::Perceptron>(config);
             },
             [config] { return std::make_unique<RefPerceptron>(config); }});
    }
    {
        predictor::TournamentConfig config = smallTournamentConfig();
        pairs.push_back(
            {config.label,
             [config] {
                 return std::make_unique<predictor::Tournament>(config);
             },
             [config] { return std::make_unique<RefTournament>(config); }});
        predictor::TournamentConfig perfect = smallTournamentConfig();
        perfect.btb = predictor::BtbConfig::perfect();
        perfect.label = "tournament(perfect-btb)";
        pairs.push_back(
            {perfect.label,
             [perfect] {
                 return std::make_unique<predictor::Tournament>(perfect);
             },
             [perfect] {
                 return std::make_unique<RefTournament>(perfect);
             }});
    }

    return pairs;
}

// ---------------------------------------------------------------------------
// Campaign driver

SuiteReport
runCampaign(const SuiteOptions &options,
            const std::function<Trace(uint64_t seed)> &trace_of,
            const std::vector<TraceDiff> &diffs)
{
    SuiteReport report;
    std::set<std::string> shrunk_pairs;
    for (uint64_t t = 0; t < options.traces; ++t) {
        uint64_t seed = options.seedBase + t;
        Trace trace = trace_of(seed);
        ++report.tracesRun;
        obs::count(obs::ids().checkDiffTraces);
        for (const TraceDiff &diff_of : diffs) {
            ++report.comparisons;
            obs::count(obs::ids().checkDiffComparisons);
            DiffResult diff = diff_of(trace);
            if (diff.ok())
                continue;
            obs::count(obs::ids().checkDiffMismatches,
                       diff.mismatches.size());
            SuiteFailure failure;
            failure.pair = diff.mismatches.front().pair;
            failure.seed = seed;
            failure.first = diff.mismatches.front();
            failure.shrunk = options.minimize &&
                shrunk_pairs.insert(failure.pair).second;
            failure.reproducer = failure.shrunk
                ? minimizeTrace(trace,
                                [&diff_of](const Trace &candidate) {
                                    return !diff_of(candidate).ok();
                                })
                : trace;
            report.failures.push_back(std::move(failure));
        }
    }
    return report;
}

SuiteReport
runCheckSuite(const SuiteOptions &options,
              const std::vector<CheckPair> &pairs)
{
    std::vector<TraceDiff> diffs;
    for (const CheckPair &pair : pairs) {
        diffs.push_back(
            [&pair](const Trace &trace) { return diffPair(trace, pair); });
    }
    return runCampaign(
        options,
        [&options](uint64_t seed) {
            return fuzzTrace(seed, options.conditionals);
        },
        diffs);
}

std::string
formatReport(const SuiteReport &report)
{
    std::ostringstream os;
    os << "differential check: " << report.tracesRun << " traces, "
       << report.comparisons << " replays, " << report.failures.size()
       << " failure(s)\n";
    for (const SuiteFailure &f : report.failures) {
        os << "  FAIL pair=" << f.pair << " seed=" << f.seed << " path="
           << f.first.path;
        if (f.first.index == Mismatch::kAggregate) {
            os << " (" << f.first.detail << ")";
        } else {
            os << " branch#" << f.first.index << " pc=0x" << std::hex
               << f.first.pc << std::dec << " expected="
               << (f.first.expected ? 'T' : 'N') << " got="
               << (f.first.got ? 'T' : 'N');
        }
        os << " reproducer=" << f.reproducer.size() << " records"
           << (f.shrunk ? "" : " (not shrunk)") << "\n";
    }
    return os.str();
}

// ---------------------------------------------------------------------------
// Injected bugs (harness self-test)

namespace {

/**
 * PAs with an off-by-one in training: predictions read the right BHT
 * row and PHT set, but training indexes the next branch's, pc + 4.
 */
class BuggyPas : public RefTwoLevel
{
  public:
    using RefTwoLevel::RefTwoLevel;

  protected:
    void
    train(const BranchRecord &br, bool taken) override
    {
        BranchRecord next = br;
        next.pc += 4; // BUG: trains the neighboring branch's row
        RefTwoLevel::train(next, taken);
    }
};

/** Branch @p i of @p batch as the record step() receives. */
BranchRecord
batchRecord(const predictor::SoaBatch &batch, size_t i)
{
    return {batch.pc[i], batch.target[i], trace::BranchKind::Conditional,
            batch.taken[i] != 0};
}

/**
 * gshare whose SoA batch path predicts each branch *before* applying
 * the previous branch's training — step() is untouched, so only the
 * soa and run comparisons can catch it.
 */
class SoaStaleHistoryGshare : public RefTwoLevel
{
  public:
    SoaStaleHistoryGshare() : RefTwoLevel(TwoLevelConfig::gshare(8)) {}

    uint64_t
    predictUpdateSoa(const predictor::SoaBatch &batch,
                     uint8_t *correct_out) noexcept override
    {
        uint64_t n_correct = 0;
        for (size_t i = 0; i < batch.count; ++i) {
            BranchRecord br = batchRecord(batch, i);
            bool predicted = prediction(br); // BUG: stale history
            if (i > 0) {
                BranchRecord prev = batchRecord(batch, i - 1);
                train(prev, prev.taken);
            }
            bool correct = predicted == br.taken;
            n_correct += correct ? 1 : 0;
            if (correct_out)
                correct_out[i] = correct ? 1 : 0;
        }
        if (batch.count > 0) {
            BranchRecord last = batchRecord(batch, batch.count - 1);
            train(last, last.taken);
        }
        return n_correct;
    }
};

/**
 * gshare whose SoA batch path trains the counter and history *before*
 * predicting each branch. step() is faithful, so only the "soa" stream
 * (and the sim::run aggregates built on it) can catch this — the
 * self-test that proves the harness actually exercises the column
 * batch path.
 */
class SoaPrematureTrainGshare : public RefTwoLevel
{
  public:
    SoaPrematureTrainGshare() : RefTwoLevel(TwoLevelConfig::gshare(8)) {}

    uint64_t
    predictUpdateSoa(const predictor::SoaBatch &batch,
                     uint8_t *correct_out) noexcept override
    {
        uint64_t n_correct = 0;
        for (size_t i = 0; i < batch.count; ++i) {
            BranchRecord br = batchRecord(batch, i);
            train(br, br.taken); // BUG: trains before predicting
            bool correct = prediction(br) == br.taken;
            n_correct += correct ? 1 : 0;
            if (correct_out)
                correct_out[i] = correct ? 1 : 0;
        }
        return n_correct;
    }
};

/** Loop predictor that learns trip counts one too large. */
class BuggyLoop : public RefLoop
{
  protected:
    void
    train(const BranchRecord &br, bool taken) override
    {
        RefLoop::train(br, taken);
        State &st = table_.at(br.pc);
        if (st.run == 0) // a run just ended and set the trip count
            ++st.trip;   // BUG: off by one
    }
};

/**
 * TAGE whose freshly allocated entries start weakly *against* the
 * observed outcome. Lookup, training, aging and the provider chain are
 * all inherited intact — only allocateEntry (the allocation path) is
 * wrong, so catching this proves the fuzz corpus actually drives
 * mispredict-triggered allocations.
 */
class TageAllocWrongDirectionBug : public predictor::Tage
{
  public:
    using Tage::Tage;

  protected:
    void
    allocateEntry(Entry &slot, uint16_t tag, bool taken) noexcept override
    {
        slot.tag = tag;
        uint8_t weak_taken =
            uint8_t(1) << (config().counterBits - 1);
        // BUG: inverted — initializes weakly against the outcome.
        slot.ctr = taken ? uint8_t(weak_taken - 1) : weak_taken;
        slot.useful = 0;
    }
};

/**
 * Perceptron whose weights wrap at the saturation bounds instead of
 * clamping — the classic missing-saturation bug, visible only once
 * training pushes some weight to a rail.
 */
class PerceptronWeightWrapBug : public predictor::Perceptron
{
  public:
    using Perceptron::Perceptron;

  protected:
    int
    clampWeight(int weight, bool taken) const noexcept override
    {
        int next = weight + (taken ? 1 : -1);
        // BUG: wraps to the opposite rail instead of saturating.
        if (next > config().weightMax)
            return config().weightMin;
        if (next < config().weightMin)
            return config().weightMax;
        return next;
    }
};

/**
 * Perceptron whose step() peeks at the outcome: on a weak sum (|sum| at
 * or below the training threshold) it returns `taken` instead of the
 * sum's sign. It inherits Perceptron's batch loop, which calls
 * Perceptron::step, so only the scalar path sees the peek: the
 * evidence that a step() reading `taken` is caught.
 */
class StepPeeksOutcomeBug : public predictor::Perceptron
{
  public:
    using Perceptron::Perceptron;

    bool
    step(const trace::BranchRecord &br, bool taken) noexcept override
    {
        size_t index[kMaxTables];
        int sum = sumOf(br.pc, index);
        bool weak = std::abs(sum) <= theta();
        bool predicted = Perceptron::step(br, taken);
        return weak ? taken : predicted; // BUG: reads the outcome
    }
};

/**
 * Tournament with the BTB miss model disabled: taken predictions
 * survive BTB misses. Both direction components and the chooser are
 * inherited intact, so only traces that actually miss the (tiny) BTB
 * expose it.
 */
class TournamentBtbIgnoreMissBug : public predictor::Tournament
{
  public:
    using Tournament::Tournament;

  protected:
    bool
    btbHit(uint64_t) const noexcept override
    {
        return true; // BUG: every target is assumed buffered
    }
};

/**
 * Gshare whose SoA batch path heap-allocates a scratch buffer per
 * batch while predicting bit-identically to the clean implementation.
 * No differential path can see it, and copra_lint's hot-region pass
 * has no jurisdiction here (src/check/ is excluded as harness code) —
 * exactly the defect class the runtime allocation gate
 * (check/hot_gates.hpp) exists for, and the --inject self-test
 * requires that gate to catch it. The allocation inside a noexcept
 * override is part of the bug: a real regression would look the same.
 */
class HotPathAllocBug : public predictor::TwoLevel
{
  public:
    using TwoLevel::TwoLevel;

    uint64_t
    predictUpdateSoa(const predictor::SoaBatch &batch,
                     uint8_t *correct_out) noexcept override
    {
        // BUG: fresh heap scratch on every batch of the hot path.
        // (correct_out is nullptr when the caller keeps no ledger.)
        std::vector<uint8_t> scratch(batch.count);
        uint64_t correct =
            TwoLevel::predictUpdateSoa(batch, scratch.data());
        if (correct_out != nullptr)
            for (size_t i = 0; i < batch.count; ++i)
                correct_out[i] = scratch[i];
        return correct;
    }
};

} // namespace

const char *
injectedBugName(InjectedBug bug)
{
    switch (bug) {
      case InjectedBug::PasHistoryOffByOne:
        return "pas-history-off-by-one";
      case InjectedBug::GshareSoaStaleHistory:
        return "gshare-soa-stale-history";
      case InjectedBug::LoopTripOffByOne:
        return "loop-trip-off-by-one";
      case InjectedBug::GshareSoaPrematureTrain:
        return "gshare-soa-premature-train";
      case InjectedBug::TageAllocWrongDirection:
        return "tage-alloc-wrong-direction";
      case InjectedBug::PerceptronWeightWrap:
        return "perceptron-weight-wrap";
      case InjectedBug::TournamentBtbIgnoreMiss:
        return "tournament-btb-ignore-miss";
      case InjectedBug::HotPathAlloc:
        return "hot-path-alloc";
      case InjectedBug::OracleWindowBack255:
        return "oracle-window-back-255";
      case InjectedBug::OracleSelectRunShort:
        return "oracle-select-run-short";
      case InjectedBug::StepPeeksOutcome:
        return "step-peeks-outcome";
    }
    return "unknown";
}

CheckPair
injectedBugPair(InjectedBug bug)
{
    switch (bug) {
      case InjectedBug::PasHistoryOffByOne: {
        TwoLevelConfig config = TwoLevelConfig::pas(7, 5, 3);
        return {std::string("injected:") + injectedBugName(bug),
                [config] { return std::make_unique<BuggyPas>(config); },
                [config] { return std::make_unique<RefTwoLevel>(config); }};
      }
      case InjectedBug::GshareSoaStaleHistory:
        return {std::string("injected:") + injectedBugName(bug),
                [] { return std::make_unique<SoaStaleHistoryGshare>(); },
                [] {
                    return std::make_unique<RefTwoLevel>(
                        TwoLevelConfig::gshare(8));
                }};
      case InjectedBug::LoopTripOffByOne:
        return {std::string("injected:") + injectedBugName(bug),
                [] { return std::make_unique<BuggyLoop>(); },
                [] { return std::make_unique<RefLoop>(); }};
      case InjectedBug::GshareSoaPrematureTrain:
        return {std::string("injected:") + injectedBugName(bug),
                [] { return std::make_unique<SoaPrematureTrainGshare>(); },
                [] {
                    return std::make_unique<RefTwoLevel>(
                        TwoLevelConfig::gshare(8));
                }};
      case InjectedBug::TageAllocWrongDirection: {
        predictor::TageConfig config = smallTageConfig();
        return {std::string("injected:") + injectedBugName(bug),
                [config] {
                    return std::make_unique<TageAllocWrongDirectionBug>(
                        config);
                },
                [config] { return std::make_unique<RefTage>(config); }};
      }
      case InjectedBug::PerceptronWeightWrap: {
        predictor::PerceptronConfig config = smallPerceptronConfig();
        return {std::string("injected:") + injectedBugName(bug),
                [config] {
                    return std::make_unique<PerceptronWeightWrapBug>(
                        config);
                },
                [config] {
                    return std::make_unique<RefPerceptron>(config);
                }};
      }
      case InjectedBug::TournamentBtbIgnoreMiss: {
        predictor::TournamentConfig config = smallTournamentConfig();
        return {std::string("injected:") + injectedBugName(bug),
                [config] {
                    return std::make_unique<TournamentBtbIgnoreMissBug>(
                        config);
                },
                [config] {
                    return std::make_unique<RefTournament>(config);
                }};
      }
      case InjectedBug::HotPathAlloc: {
        TwoLevelConfig config = TwoLevelConfig::gshare(8);
        return {std::string("injected:") + injectedBugName(bug),
                [config] {
                    return std::make_unique<HotPathAllocBug>(config);
                },
                [config] { return std::make_unique<RefTwoLevel>(config); }};
      }
      case InjectedBug::StepPeeksOutcome: {
        predictor::PerceptronConfig config = smallPerceptronConfig();
        return {std::string("injected:") + injectedBugName(bug),
                [config] {
                    return std::make_unique<StepPeeksOutcomeBug>(config);
                },
                [config] {
                    return std::make_unique<RefPerceptron>(config);
                }};
      }
      case InjectedBug::OracleWindowBack255:
      case InjectedBug::OracleSelectRunShort:
        break;
    }
    panic(std::string(injectedBugName(bug)) + " has no predictor pair");
}

} // namespace copra::check
