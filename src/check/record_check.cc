#include "check/record_check.hpp"

#include <algorithm>
#include <array>
#include <sstream>

#include "obs/instruments.hpp"
#include "obs/registry.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace copra::check {

using core::BranchCandidates;
using core::CandidateMiner;
using core::Contingency;
using core::OracleConfig;
using core::RecordedBranch;
using core::Tag;
using core::TagMethod;
using core::TagOutcome;
using trace::BranchKind;
using trace::BranchRecord;
using trace::Trace;

OraclePhases
oraclePhases()
{
    return {[](const Trace &trace, const OracleConfig &config) {
                CandidateMiner miner(config.historyDepth,
                                     config.perBranchTagCap);
                miner.mine(trace, config.mineConditionals);
                return miner;
            },
            [](const trace::SoABlocks &soa, const CandidateMiner &miner,
               const OracleConfig &config) {
                core::WindowWalk walk(soa, config.historyDepth);
                return core::recordStates(walk, miner, config);
            },
            [](const std::vector<uint32_t> &rows, unsigned k,
               unsigned max_select) {
                return core::SelectiveOracle::greedySelect(rows, k,
                                                           max_select);
            }};
}

std::vector<BranchCandidates>
referenceMine(const Trace &trace, const OracleConfig &config)
{
    core::HistoryWindow window(config.historyDepth);
    std::vector<core::TagState> collected;
    uint64_t seen = 0;
    const trace::SoABlocks &soa = trace.soa();
    std::vector<BranchCandidates> table(soa.staticCount());
    for (size_t i = 0; i < soa.size(); ++i) {
        const BranchRecord rec = soa.record(i);
        if (!rec.isConditional()) {
            window.push(rec);
            continue;
        }
        if (config.mineConditionals != 0 && seen >= config.mineConditionals)
            break;
        ++seen;

        window.collect(collected);
        BranchCandidates &bc = table[soa.staticIndex(i)];
        if (rec.taken)
            ++bc.execsTaken;
        else
            ++bc.execsNotTaken;
        for (const core::TagState &ts : collected) {
            Contingency *counts = bc.tags.find(ts.tag.packed);
            if (counts == nullptr) {
                if (bc.tags.size() >= config.perBranchTagCap) {
                    bc.capped = true;
                    continue;
                }
                counts = &bc.tags.insert(ts.tag.packed);
            }
            ++counts->present[ts.taken ? 1 : 0][rec.taken ? 1 : 0];
        }
        window.push(rec);
    }
    return table;
}

std::vector<RecordedBranch>
referenceRecordStates(const trace::SoABlocks &soa,
                      const CandidateMiner &miner,
                      const OracleConfig &config)
{
    constexpr unsigned kSlots = 32;
    auto home = [](uint64_t packed) {
        return static_cast<unsigned>((packed * 0x9e3779b97f4a7c15ull) >> 59);
    };
    struct CandidateIndex
    {
        // slotField[s] is 1 + the candidate's field number (0 = empty),
        // slotKey[s] its packed tag.
        std::array<uint64_t, kSlots> slotKey{};
        std::array<uint8_t, kSlots> slotField{};
    };

    std::vector<RecordedBranch> out(soa.staticCount());
    std::vector<CandidateIndex> index(soa.staticCount());
    core::HistoryWindow window(config.historyDepth);
    std::vector<core::TagState> collected;
    for (size_t i = 0; i < soa.size(); ++i) {
        const BranchRecord rec = soa.record(i);
        if (!rec.isConditional()) {
            window.push(rec);
            continue;
        }
        const uint32_t id = soa.staticIndex(i);
        RecordedBranch &branch = out[id];
        CandidateIndex &idx = index[id];
        if (branch.rows.empty()) {
            branch.candidates = core::candidatePool(miner, rec.pc, config);
            for (size_t c = 0; c < branch.candidates.size(); ++c) {
                unsigned slot = home(branch.candidates[c].packed);
                while (idx.slotField[slot] != 0)
                    slot = (slot + 1) % kSlots;
                idx.slotKey[slot] = branch.candidates[c].packed;
                idx.slotField[slot] = static_cast<uint8_t>(c + 1);
            }
        }
        // A collected window never repeats a tag, so each field is
        // written at most once.
        uint32_t row = rec.taken ? (1u << 31) : 0u;
        if (!branch.candidates.empty()) {
            window.collect(collected);
            for (const core::TagState &ts : collected) {
                for (unsigned slot = home(ts.tag.packed);
                     idx.slotField[slot] != 0; slot = (slot + 1) % kSlots) {
                    if (idx.slotKey[slot] != ts.tag.packed)
                        continue;
                    TagOutcome state =
                        ts.taken ? TagOutcome::Taken : TagOutcome::NotTaken;
                    row |= static_cast<uint32_t>(state)
                        << (2 * (idx.slotField[slot] - 1));
                    break;
                }
            }
        }
        branch.rows.push_back(row);
        window.push(rec);
    }
    return out;
}

core::GreedySelection
referenceGreedySelect(const std::vector<uint32_t> &rows, unsigned k,
                      unsigned max_select)
{
    core::GreedySelection out;
    std::vector<unsigned> chosen;
    uint64_t last_score = core::SelectiveOracle::replayScore(rows, chosen);
    for (unsigned size = 1; size <= max_select; ++size) {
        unsigned best_candidate = k;
        uint64_t best_score = 0;
        for (unsigned c = 0; c < k; ++c) {
            if (std::find(chosen.begin(), chosen.end(), c) != chosen.end())
                continue;
            std::vector<unsigned> trial = chosen;
            trial.push_back(c);
            uint64_t score = core::SelectiveOracle::replayScore(rows, trial);
            if (best_candidate == k || score > best_score) {
                best_candidate = c;
                best_score = score;
            }
        }
        if (best_candidate != k) {
            out.order[out.picked++] = best_candidate;
            chosen.push_back(best_candidate);
            last_score = best_score;
        }
        out.correct[size - 1] = last_score;
    }
    return out;
}

std::string
recordConfigLabel(const OracleConfig &config)
{
    const char *filter = "both";
    if (config.tagFilter == OracleConfig::TagFilter::OccurrenceOnly)
        filter = "occurrence";
    else if (config.tagFilter == OracleConfig::TagFilter::BackwardOnly)
        filter = "backward";
    return "depth=" + std::to_string(config.historyDepth) + "," + filter;
}

std::string
mineConfigLabel(const OracleConfig &config)
{
    return "depth=" + std::to_string(config.historyDepth) +
        ",cap=" + std::to_string(config.perBranchTagCap);
}

std::vector<OracleConfig>
mineCheckConfigs()
{
    std::vector<OracleConfig> configs;
    for (unsigned depth : {1u, 16u, 64u}) {
        for (size_t cap : {OracleConfig{}.perBranchTagCap, size_t{24}}) {
            OracleConfig config;
            config.historyDepth = depth;
            config.perBranchTagCap = cap;
            configs.push_back(config);
        }
    }
    return configs;
}

std::vector<OracleConfig>
recordCheckConfigs()
{
    std::vector<OracleConfig> configs;
    for (unsigned depth : {1u, 16u, 64u}) {
        for (OracleConfig::TagFilter filter :
             {OracleConfig::TagFilter::Both,
              OracleConfig::TagFilter::OccurrenceOnly,
              OracleConfig::TagFilter::BackwardOnly}) {
            OracleConfig config;
            config.historyDepth = depth;
            config.tagFilter = filter;
            configs.push_back(config);
        }
    }
    return configs;
}

Trace
recordFuzzTrace(uint64_t seed, uint64_t conditionals)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x5eed);
    Trace out("record-fuzz-" + std::to_string(seed), seed);
    auto pc_of = [](uint64_t slot) { return 0x4000 + 0x40 * slot; };
    auto cond = [](uint64_t pc, uint64_t target, bool taken) {
        return BranchRecord{pc, target, BranchKind::Conditional, taken};
    };
    while (out.conditionalCount() < conditionals) {
        switch (rng.index(4)) {
          case 0: {
            // A tight self-loop: taken `trips` times, then the exit.
            uint64_t pc = pc_of(rng.index(3));
            uint64_t trips = rng.range(1, 80);
            for (uint64_t t = 0; t < trips; ++t)
                out.append(cond(pc, pc - 0x20, true));
            out.append(cond(pc, pc - 0x20, false));
            break;
          }
          case 1: {
            // A source branch, 253..257 loop closings, then a branch
            // that copies the source's outcome.
            uint64_t src = pc_of(3 + rng.index(2));
            uint64_t dst = pc_of(5 + rng.index(2));
            bool taken = rng.bernoulli(0.5);
            out.append(cond(src, src + 0x100, taken));
            uint64_t jumps = rng.range(253, 257);
            for (uint64_t j = 0; j < jumps; ++j)
                out.append({pc_of(7), pc_of(7) - 0x80, BranchKind::Jump,
                            true});
            out.append(cond(dst, dst + 0x100, taken));
            break;
          }
          default: {
            // A random mix over the whole pool.
            for (uint64_t n = rng.range(1, 12); n > 0; --n) {
                uint64_t pc = pc_of(rng.index(8));
                switch (rng.index(6)) {
                  case 0:
                    out.append({pc, pc - 0x80, BranchKind::Jump, true});
                    break;
                  case 1:
                    out.append({pc, pc + 0x80, BranchKind::Call, true});
                    break;
                  case 2:
                    out.append({pc, pc - 0x80, BranchKind::Return, true});
                    break;
                  case 3:
                    out.append(cond(pc, pc - 0x20, rng.bernoulli(0.7)));
                    break;
                  default:
                    out.append(cond(pc, pc + 0x20, rng.bernoulli(0.5)));
                    break;
                }
            }
            break;
          }
        }
    }
    return out;
}

namespace {

const char *
outcomeName(unsigned state)
{
    switch (static_cast<TagOutcome>(state)) {
      case TagOutcome::NotInPath:
        return "not-in-path";
      case TagOutcome::NotTaken:
        return "N";
      case TagOutcome::Taken:
        return "T";
    }
    return "?";
}

std::string
tagName(const Tag &tag)
{
    std::ostringstream os;
    os << "0x" << std::hex << tag.pc() << std::dec
       << (tag.method() == TagMethod::Occurrence ? " A" : " B")
       << unsigned(tag.num());
    return os.str();
}

/** Describe the first difference between two recorded branches. */
std::string
firstDifference(const RecordedBranch &want, const RecordedBranch &got)
{
    std::ostringstream os;
    if (want.candidates.size() != got.candidates.size())
        return "candidate pools of different size";
    for (size_t c = 0; c < want.candidates.size(); ++c) {
        if (!(want.candidates[c] == got.candidates[c]))
            return "candidate " + std::to_string(c) + " differs";
    }
    if (want.rows.size() != got.rows.size())
        return "row counts differ";
    for (size_t r = 0; r < want.rows.size(); ++r) {
        if (want.rows[r] == got.rows[r])
            continue;
        os << "execution " << r << ": ";
        if ((want.rows[r] ^ got.rows[r]) >> 31) {
            os << "outcome bit differs";
            return os.str();
        }
        for (size_t c = 0; c < want.candidates.size(); ++c) {
            unsigned w = (want.rows[r] >> (2 * c)) & 3u;
            unsigned g = (got.rows[r] >> (2 * c)) & 3u;
            if (w != g) {
                os << "candidate " << c << " (" << tagName(want.candidates[c])
                   << ") expected " << outcomeName(w) << " got "
                   << outcomeName(g);
                return os.str();
            }
        }
        os << "bits past the candidate fields differ";
        return os.str();
    }
    return "";
}

/**
 * Describe the first difference between a branch's reference mining
 * statistics and the miner's (nullptr: the miner has no row for it).
 */
std::string
mineDifference(const BranchCandidates &want, const BranchCandidates *got)
{
    if (got == nullptr)
        return want.execs() == 0 ? "" : "not mined";
    if (want.execs() == 0)
        return "mined but never ran in the prefix";
    std::ostringstream os;
    if (want.execsTaken != got->execsTaken ||
        want.execsNotTaken != got->execsNotTaken) {
        os << "executions T/N expected " << want.execsTaken << "/"
           << want.execsNotTaken << " got " << got->execsTaken << "/"
           << got->execsNotTaken;
        return os.str();
    }
    if (want.capped != got->capped)
        return want.capped ? "expected capped" : "capped unexpectedly";
    if (want.tags.size() != got->tags.size()) {
        os << "expected " << want.tags.size() << " tags, got "
           << got->tags.size();
        return os.str();
    }
    // The smallest differing tag, so the report does not depend on the
    // tables' slot order.
    bool found = false;
    Tag first;
    want.tags.forEach([&](uint64_t packed, const Contingency &counts) {
        const Contingency *other = got->tags.find(packed);
        bool same = other != nullptr;
        for (unsigned t = 0; same && t < 2; ++t)
            for (unsigned x = 0; x < 2; ++x)
                same = same && counts.present[t][x] == other->present[t][x];
        if (!same && (!found || packed < first.packed)) {
            found = true;
            first.packed = packed;
        }
    });
    if (!found)
        return "";
    os << "tag " << tagName(first)
       << (got->tags.find(first.packed) == nullptr ? " missing"
                                                   : " counts differ");
    return os.str();
}

} // namespace

DiffResult
diffMine(const Trace &trace, const OracleConfig &config, const MineFn &mine)
{
    const CandidateMiner miner = mine(trace, config);
    const std::vector<BranchCandidates> want = referenceMine(trace, config);
    const trace::SoABlocks &soa = trace.soa();

    DiffResult result;
    Mismatch m;
    m.pair = "oracle-mine(" + mineConfigLabel(config) + ")";
    m.path = "mine";
    m.index = Mismatch::kAggregate;
    for (size_t id = 0; id < want.size(); ++id) {
        m.pc = soa.staticPcs()[id];
        std::string diff = mineDifference(want[id], miner.branch(m.pc));
        if (diff.empty())
            continue;
        std::ostringstream os;
        os << "branch 0x" << std::hex << m.pc << std::dec << " " << diff;
        m.detail = os.str();
        result.mismatches.push_back(m);
        return result;
    }
    return result;
}

DiffResult
diffRecord(const Trace &trace, const OracleConfig &config,
           const RecordFn &record)
{
    CandidateMiner miner(config.historyDepth, config.perBranchTagCap);
    miner.mine(trace, config.mineConditionals);
    const trace::SoABlocks &soa = trace.soa();
    std::vector<RecordedBranch> want =
        referenceRecordStates(soa, miner, config);
    std::vector<RecordedBranch> got = record(soa, miner, config);

    DiffResult result;
    Mismatch m;
    m.pair = "oracle-record(" + recordConfigLabel(config) + ")";
    m.path = "record";
    m.index = Mismatch::kAggregate;
    if (got.size() != want.size()) {
        m.detail = "branch counts differ";
        result.mismatches.push_back(m);
        return result;
    }
    for (size_t id = 0; id < want.size(); ++id) {
        std::string diff = firstDifference(want[id], got[id]);
        if (diff.empty())
            continue;
        m.pc = soa.staticPcs()[id];
        std::ostringstream os;
        os << "branch 0x" << std::hex << m.pc << std::dec << " " << diff;
        m.detail = os.str();
        result.mismatches.push_back(m);
        return result;
    }
    return result;
}

namespace {

/** "[a b] correct N": the first @p size picks of @p greedy and its count. */
std::string
selectionName(const core::GreedySelection &greedy, unsigned size)
{
    std::ostringstream os;
    os << "[";
    for (unsigned i = 0; i < std::min(size, greedy.picked); ++i)
        os << (i == 0 ? "" : " ") << greedy.order[i];
    os << "] correct " << greedy.correct[size - 1];
    return os.str();
}

} // namespace

DiffResult
diffSelect(const Trace &trace, const OracleConfig &config,
           const SelectFn &select)
{
    CandidateMiner miner(config.historyDepth, config.perBranchTagCap);
    miner.mine(trace, config.mineConditionals);
    const trace::SoABlocks &soa = trace.soa();
    core::WindowWalk walk(soa, config.historyDepth);
    const std::vector<RecordedBranch> branches =
        core::recordStates(walk, miner, config);

    DiffResult result;
    Mismatch m;
    m.pair = "oracle-select(" + recordConfigLabel(config) + ")";
    m.path = "select";
    m.index = Mismatch::kAggregate;
    for (size_t id = 0; id < branches.size(); ++id) {
        const RecordedBranch &branch = branches[id];
        if (branch.rows.empty())
            continue;
        const auto k = static_cast<unsigned>(branch.candidates.size());
        const core::GreedySelection want =
            referenceGreedySelect(branch.rows, k, config.maxSelect);
        const core::GreedySelection got =
            select(branch.rows, k, config.maxSelect);
        for (unsigned size = 1; size <= config.maxSelect; ++size) {
            const std::string want_name = selectionName(want, size);
            const std::string got_name = selectionName(got, size);
            if (want_name == got_name)
                continue;
            m.pc = soa.staticPcs()[id];
            std::ostringstream os;
            os << "branch 0x" << std::hex << m.pc << std::dec << " size "
               << size << ": expected " << want_name << " got "
               << got_name;
            m.detail = os.str();
            result.mismatches.push_back(m);
            return result;
        }
    }
    return result;
}

SuiteReport
runOracleSuite(const SuiteOptions &options, const OraclePhases &phases)
{
    std::vector<TraceDiff> diffs;
    if (phases.mine) {
        for (const OracleConfig &config : mineCheckConfigs())
            diffs.push_back([config, &phases](const Trace &trace) {
                return diffMine(trace, config, phases.mine);
            });
    }
    if (phases.record) {
        for (const OracleConfig &config : recordCheckConfigs())
            diffs.push_back([config, &phases](const Trace &trace) {
                return diffRecord(trace, config, phases.record);
            });
    }
    if (phases.select) {
        for (const OracleConfig &config : recordCheckConfigs())
            diffs.push_back([config, &phases](const Trace &trace) {
                return diffSelect(trace, config, phases.select);
            });
    }
    return runCampaign(
        options,
        [&options](uint64_t seed) {
            return recordFuzzTrace(seed, options.conditionals);
        },
        diffs);
}

namespace {

/** Whether @p bug lives in the oracle rather than in a predictor. */
bool
isOracleBug(InjectedBug bug)
{
    return bug == InjectedBug::OracleWindowBack255 ||
        bug == InjectedBug::OracleSelectRunShort;
}

} // namespace

OraclePhases
injectedOracle(InjectedBug bug)
{
    panicIf(!isOracleBug(bug), "injectedOracle: not an oracle bug");
    if (bug == InjectedBug::OracleSelectRunShort) {
        // BUG: a run of identical rows steps its counters at most twice,
        // one step short of saturation: a run of three or more taken rows
        // from weakly-not-taken leaves the counters weakly taken, not
        // strongly.
        OraclePhases phases;
        phases.select = [](const std::vector<uint32_t> &rows, unsigned k,
                           unsigned max_select) {
            return core::SelectiveOracle::greedySelect(
                rows, k, max_select,
                core::SelectiveOracle::kSaturationSteps - 1);
        };
        return phases;
    }
    // BUG: backward distances cap at 255 instead of 256, so an entry
    // 255 transfers old (method-B number 255) and one 256 or more old
    // (no method-B tag) key the same window. Whichever is seen first
    // decides the tags of both.
    constexpr uint32_t kBuggyCap = 255;
    OraclePhases phases;
    phases.mine = [](const Trace &trace, const OracleConfig &config) {
        CandidateMiner miner(config.historyDepth, config.perBranchTagCap);
        core::WindowWalk walk(trace.soa(), config.historyDepth, kBuggyCap);
        miner.mine(walk, config.mineConditionals);
        return miner;
    };
    phases.record = [](const trace::SoABlocks &soa,
                       const CandidateMiner &miner,
                       const OracleConfig &config) {
        core::WindowWalk walk(soa, config.historyDepth, kBuggyCap);
        return core::recordStates(walk, miner, config);
    };
    return phases;
}

SuiteReport
runInjectedSuite(const SuiteOptions &options, InjectedBug bug)
{
    if (isOracleBug(bug))
        return runOracleSuite(options, injectedOracle(bug));
    return runCheckSuite(options, {injectedBugPair(bug)});
}

} // namespace copra::check
