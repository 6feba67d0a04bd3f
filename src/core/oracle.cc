#include "core/oracle.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "obs/instruments.hpp"
#include "obs/registry.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace copra::core {

namespace {

/** Outcome bit position in a packed row. */
constexpr unsigned kOutcomeBit = 31;

/** Extract candidate @p i's 3-valued state from a packed row. */
inline unsigned
stateBits(uint32_t row, unsigned i)
{
    return (row >> (2 * i)) & 0x3u;
}

/** Home slot of a packed tag in a branch's 32-slot candidate index. */
inline unsigned
candidateHome(uint64_t packed)
{
    return static_cast<unsigned>((packed * 0x9e3779b97f4a7c15ull) >> 59);
}

/** 2-bit counter successor, [taken][counter], matching Counter2. */
constexpr uint8_t kNextCounter[2][4] = {{0, 0, 1, 2}, {1, 2, 3, 3}};

/**
 * Score every one-candidate extension of a chosen set in one pass:
 * afterwards correct[c] equals replayScore(rows, chosen + {c}) for each
 * c < @p k. The k tables of 3^(m+1) counters sit side by side, and
 * entries for candidates already in @p chosen are meaningless.
 */
void
scoreExtensions(const std::vector<uint32_t> &rows, const unsigned *chosen,
                unsigned m, unsigned k, uint64_t *correct)
{
    const uint32_t radix = pow3(m); // weight of the extending candidate
    const uint32_t table_size = 3 * radix;
    // Initialized weakly-not-taken, as in replayScore.
    std::array<uint8_t, 15 * pow3(3)> counters;
    std::fill_n(counters.begin(), k * table_size, uint8_t{1});
    std::fill_n(correct, k, uint64_t{0});

    for (uint32_t row : rows) {
        uint32_t prefix = 0;
        uint32_t weight = 1;
        for (unsigned j = 0; j < m; ++j) {
            prefix += stateBits(row, chosen[j]) * weight;
            weight *= 3;
        }
        unsigned taken = row >> kOutcomeBit;
        uint8_t *table = counters.data() + prefix;
        for (unsigned c = 0; c < k; ++c, table += table_size) {
            uint8_t &counter = table[stateBits(row, c) * radix];
            correct[c] += (counter >> 1) == taken;
            counter = kNextCounter[taken][counter];
        }
    }
}

} // namespace

SelectiveOracle::SelectiveOracle(const trace::Trace &trace,
                                 const OracleConfig &config)
    : config_(config)
{
    fatalIf(config.candidatePool == 0 || config.candidatePool > 15,
            "oracle candidate pool must be in 1..15 (packing limit)");
    fatalIf(config.maxSelect == 0 || config.maxSelect > 3,
            "oracle maxSelect must be in 1..3");
    fatalIf(config.historyDepth == 0 || config.historyDepth > 64,
            "oracle history depth must be in 1..64");

    // Phase CPU times feed telemetry only; the clock is not read when
    // telemetry is off.
    const bool timed = obs::enabled();
    auto cpu_now = [timed] { return timed ? obs::threadCpuSeconds() : 0.0; };

    double start = cpu_now();
    CandidateMiner miner(config.historyDepth, config.perBranchTagCap);
    miner.mine(trace, config.mineConditionals);
    double mined = cpu_now();
    const trace::SoABlocks &soa = trace.soa();
    std::vector<BranchData> data(soa.staticCount());
    std::vector<BranchSelection> selections(soa.staticCount());
    record(soa, miner, data, selections);
    double recorded = cpu_now();
    double select_cpu = select(data, selections, timed);
    branches_ = rowsFromIds(
        soa.staticPcs(), selections,
        [](const BranchSelection &sel) { return sel.execs != 0; });
    if (timed) {
        obs::observe(obs::ids().simPhaseOracleMineCpuSeconds,
                     mined - start);
        obs::observe(obs::ids().simPhaseOracleRecordCpuSeconds,
                     recorded - mined);
        obs::observe(obs::ids().simPhaseOracleSelectCpuSeconds,
                     select_cpu);
    }
}

void
SelectiveOracle::record(const trace::SoABlocks &soa,
                        const CandidateMiner &miner,
                        std::vector<BranchData> &data_by_id,
                        std::vector<BranchSelection> &selections) const
{
    static_assert(kCandidateSlots == 32,
                  "candidateHome() indexes with the top 5 hash bits");
    HistoryWindow window(config_.historyDepth);
    std::vector<TagState> collected;

    for (size_t i = 0; i < soa.size(); ++i) {
        const trace::BranchRecord rec = soa.record(i);
        if (!rec.isConditional()) {
            window.push(rec);
            continue;
        }

        const uint32_t id = soa.staticIndex()[i];
        BranchData &data = data_by_id[id];
        BranchSelection &sel = selections[id];
        if (sel.execs == 0) {
            // First execution: index the branch's mined candidates.
            sel.pc = rec.pc;
            // Over-fetch so a method filter still fills the pool.
            for (const ScoredCandidate &cand :
                 miner.topCandidates(rec.pc, 2 * config_.candidatePool)) {
                bool is_occurrence =
                    cand.tag.method() == TagMethod::Occurrence;
                if (config_.tagFilter ==
                        OracleConfig::TagFilter::OccurrenceOnly &&
                    !is_occurrence)
                    continue;
                if (config_.tagFilter ==
                        OracleConfig::TagFilter::BackwardOnly &&
                    is_occurrence)
                    continue;
                unsigned slot = candidateHome(cand.tag.packed);
                while (data.slotField[slot] != 0)
                    slot = (slot + 1) % kCandidateSlots;
                data.slotKey[slot] = cand.tag.packed;
                data.slotField[slot] =
                    static_cast<uint8_t>(data.candidates.size() + 1);
                data.candidates.push_back(cand.tag);
                if (data.candidates.size() >= config_.candidatePool)
                    break;
            }
        }
        ++sel.execs;
        if (rec.taken)
            ++sel.taken;

        // One index lookup per collected tag sets that candidate's
        // field. A collected window never repeats a tag, so each field
        // is written at most once, exactly as stateOf() would read it.
        uint32_t row = rec.taken ? (1u << kOutcomeBit) : 0u;
        if (!data.candidates.empty()) {
            window.collect(collected);
            for (const TagState &ts : collected) {
                unsigned slot = candidateHome(ts.tag.packed);
                for (; data.slotField[slot] != 0;
                     slot = (slot + 1) % kCandidateSlots) {
                    if (data.slotKey[slot] != ts.tag.packed)
                        continue;
                    TagOutcome state =
                        ts.taken ? TagOutcome::Taken : TagOutcome::NotTaken;
                    row |= static_cast<uint32_t>(state)
                        << (2 * (data.slotField[slot] - 1));
                    break;
                }
            }
        }
        data.rows.push_back(row);

        window.push(rec);
    }
}

uint64_t
SelectiveOracle::replayScore(const std::vector<uint32_t> &rows,
                             const std::vector<unsigned> &subset)
{
    panicIf(subset.size() > 8, "replayScore subset too large");
    uint32_t table_size = pow3(static_cast<unsigned>(subset.size()));
    // 2-bit counters initialized weakly-not-taken, matching Counter2.
    std::array<uint8_t, pow3(8)> counters;
    std::fill(counters.begin(), counters.begin() + table_size, 1);

    uint64_t correct = 0;
    for (uint32_t row : rows) {
        uint32_t pattern = 0;
        uint32_t radix = 1;
        for (unsigned idx : subset) {
            pattern += stateBits(row, idx) * radix;
            radix *= 3;
        }
        uint8_t &counter = counters[pattern];
        bool taken = (row >> kOutcomeBit) & 1u;
        bool predicted = counter >= 2;
        if (predicted == taken)
            ++correct;
        if (taken) {
            if (counter < 3)
                ++counter;
        } else {
            if (counter > 0)
                --counter;
        }
    }
    return correct;
}

GreedySelection
SelectiveOracle::greedySelect(const std::vector<uint32_t> &rows, unsigned k,
                              unsigned max_select)
{
    panicIf(k > 15 || max_select > 3, "greedySelect out of range");
    GreedySelection out;
    bool in_set[15] = {};
    std::array<uint64_t, 15> correct{};
    uint64_t last_score = k == 0 ? replayScore(rows, {}) : 0;

    for (unsigned size = 1; size <= max_select; ++size) {
        if (out.picked < k) {
            scoreExtensions(rows, out.order.data(), out.picked, k,
                            correct.data());
            unsigned best = k;
            for (unsigned c = 0; c < k; ++c) {
                if (!in_set[c] && (best == k || correct[c] > correct[best]))
                    best = c;
            }
            out.order[out.picked++] = best;
            in_set[best] = true;
            last_score = correct[best];
        }
        // When candidates run out, larger sizes inherit the best smaller
        // set (there is nothing more to include in the history).
        out.correct[size - 1] = last_score;
    }
    return out;
}

void
SelectiveOracle::selectGreedy(const BranchData &data,
                              BranchSelection &out) const
{
    GreedySelection greedy = greedySelect(
        data.rows, static_cast<unsigned>(data.candidates.size()),
        config_.maxSelect);
    for (unsigned size = 1; size <= config_.maxSelect; ++size) {
        out.correct[size - 1] = greedy.correct[size - 1];
        out.chosen[size - 1].clear();
        for (unsigned i = 0; i < std::min(size, greedy.picked); ++i)
            out.chosen[size - 1].push_back(data.candidates[greedy.order[i]]);
    }
}

void
SelectiveOracle::selectExhaustive(const BranchData &data,
                                  BranchSelection &out) const
{
    unsigned n = static_cast<unsigned>(data.candidates.size());
    uint64_t empty_score = replayScore(data.rows, {});

    for (unsigned size = 1; size <= config_.maxSelect; ++size) {
        uint64_t best_score = 0;
        std::vector<unsigned> best_set;
        bool any = false;

        // Enumerate all subsets of exactly min(size, n) candidates.
        unsigned take = std::min(size, n);
        if (take == 0) {
            out.correct[size - 1] = empty_score;
            out.chosen[size - 1].clear();
            continue;
        }
        std::vector<unsigned> idx(take);
        for (unsigned i = 0; i < take; ++i)
            idx[i] = i;
        while (true) {
            uint64_t score = replayScore(data.rows, idx);
            if (!any || score > best_score) {
                any = true;
                best_score = score;
                best_set = idx;
            }
            // Next combination.
            int pos = static_cast<int>(take) - 1;
            while (pos >= 0 && idx[static_cast<unsigned>(pos)] ==
                   n - take + static_cast<unsigned>(pos))
                --pos;
            if (pos < 0)
                break;
            ++idx[static_cast<unsigned>(pos)];
            for (unsigned i = static_cast<unsigned>(pos) + 1; i < take; ++i)
                idx[i] = idx[i - 1] + 1;
        }

        out.correct[size - 1] = best_score;
        out.chosen[size - 1].clear();
        for (unsigned i : best_set)
            out.chosen[size - 1].push_back(data.candidates[i]);
    }
}

double
SelectiveOracle::select(const std::vector<BranchData> &data_by_id,
                        std::vector<BranchSelection> &selections,
                        bool timed) const
{
    // Branches are independent (each task reads immutable recorded rows
    // and writes only its own BranchSelection), so partition them
    // across the pool by static id. Per-task CPU seconds, summed in
    // index order once the pool is done, so the select phase counts
    // every thread that ran part of it.
    std::vector<double> task_cpu(timed ? selections.size() : 0);
    parallelFor(globalPool(), selections.size(), [&](size_t id) {
        if (selections[id].execs == 0)
            return;
        double start = timed ? obs::threadCpuSeconds() : 0.0;
        if (config_.exhaustive)
            selectExhaustive(data_by_id[id], selections[id]);
        else
            selectGreedy(data_by_id[id], selections[id]);
        if (timed)
            task_cpu[id] = obs::threadCpuSeconds() - start;
    });
    double total = 0.0;
    for (double seconds : task_cpu)
        total += seconds;
    return total;
}

const BranchSelection *
SelectiveOracle::branch(uint64_t pc) const
{
    return findRow(branches_, pc);
}

double
SelectiveOracle::accuracyPercent(unsigned size) const
{
    panicIf(size == 0 || size > config_.maxSelect,
            "selective size out of range");
    uint64_t execs = 0;
    uint64_t correct = 0;
    for (const auto &[pc, sel] : branches_) {
        execs += sel.execs;
        correct += sel.correct[size - 1];
    }
    if (execs == 0)
        return 0.0;
    return 100.0 * static_cast<double>(correct)
        / static_cast<double>(execs);
}

sim::Ledger
SelectiveOracle::toLedger(unsigned size) const
{
    panicIf(size == 0 || size > config_.maxSelect,
            "selective size out of range");
    return sim::ledgerOf(branches_, [size](const BranchSelection &sel) {
        return sel.correct[size - 1];
    });
}

std::unordered_map<uint64_t, std::vector<Tag>>
SelectiveOracle::selectionMap(unsigned size) const
{
    panicIf(size == 0 || size > config_.maxSelect,
            "selective size out of range");
    std::unordered_map<uint64_t, std::vector<Tag>> out;
    for (const auto &[pc, sel] : branches_) {
        const auto &tags = sel.chosen[size - 1];
        if (!tags.empty())
            out.emplace(pc, tags);
    }
    return out;
}

} // namespace copra::core
