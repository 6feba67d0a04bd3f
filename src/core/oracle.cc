#include "core/oracle.hpp"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "obs/instruments.hpp"
#include "obs/registry.hpp"
#include "util/flat_map.hpp"
#include "util/logging.hpp"
#include "util/page_vector.hpp"
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

/**
 * One distinct row of a branch. Lane c of a 16-bit plane is candidate
 * c; each mask covers both planes of a counter cell (bits c and 16 + c).
 */
struct DistinctRow
{
    /** lanes[s]: the candidates whose state in the row is s. */
    std::array<uint32_t, 3> lanes;
    uint32_t row;
    /** Per pass: the row's first (prefix, state) cell, 3 * prefix. */
    uint32_t cell;
};

/**
 * A branch's rows as runs of consecutive identical rows: each distinct
 * row once, and per run its distinct id << 2 | min(length, steps).
 */
struct RowRuns
{
    std::vector<DistinctRow> distinct;
    std::vector<uint32_t> runs;
};

/**
 * Intern @p rows and cut them into runs. A run's length is kept up to
 * @p steps only: after that many same-outcome steps a 2-bit counter is
 * saturated toward the outcome, so later steps neither miss nor move it.
 */
RowRuns
internRuns(const std::vector<uint32_t> &rows, unsigned steps)
{
    RowRuns out;
    size_t run_count = rows.empty() ? 0 : 1;
    for (size_t i = 1; i < rows.size(); ++i)
        run_count += rows[i] != rows[i - 1];
    out.runs.reserve(run_count);

    FlatMap<uint32_t> ids; // row -> distinct id
    for (size_t i = 0; i < rows.size();) {
        const uint32_t row = rows[i];
        size_t end = i + 1;
        while (end < rows.size() && rows[end] == row)
            ++end;
        uint32_t *id = ids.find(row);
        if (id == nullptr) {
            id = &ids.insert(row);
            *id = static_cast<uint32_t>(out.distinct.size());
            DistinctRow d{{}, row, 0};
            for (unsigned c = 0; c < 15; ++c) {
                const unsigned state = stateBits(row, c);
                panicIf(state > 2, "oracle row holds an invalid tag state");
                d.lanes[state] |= 0x10001u << c;
            }
            out.distinct.push_back(d);
        }
        const auto length =
            static_cast<uint32_t>(std::min<size_t>(end - i, steps));
        out.runs.push_back(*id << 2 | length);
        i = end;
    }
    return out;
}

/** spread[b] has byte i set to bit i of b. */
constexpr std::array<uint64_t, 256> kSpread = [] {
    std::array<uint64_t, 256> spread{};
    for (unsigned b = 0; b < 256; ++b)
        for (unsigned i = 0; i < 8; ++i)
            spread[b] |= uint64_t{(b >> i) & 1u} << (8 * i);
    return spread;
}();

/**
 * Score every one-candidate extension of a chosen set in one pass over
 * @p runs: afterwards misses[c] is the number of rows that
 * replayScore(rows, chosen + {c}) predicts wrong, for each c < 15.
 * Entries for candidates already in @p chosen are meaningless.
 *
 * Each (prefix, state) cell holds one 2-bit counter per candidate, bit
 * sliced: the high bits H in the low 16 bits of the cell, the low bits
 * L in the high 16. A run gathers its row's counters from the three
 * cells of its prefix, steps them all at once and scatters them back.
 */
void
scoreRuns(RowRuns &runs, const unsigned *chosen, unsigned m,
          uint64_t *misses)
{
    for (DistinctRow &d : runs.distinct) {
        uint32_t prefix = 0;
        for (unsigned j = m; j-- > 0;)
            prefix = 3 * prefix + stateBits(d.row, chosen[j]);
        d.cell = 3 * prefix;
    }
    // Initialized weakly-not-taken (H = 0, L = 1), as in replayScore.
    std::array<uint32_t, 3 * pow3(2)> cells;
    cells.fill(0xffff0000u);
    std::fill_n(misses, 15, uint64_t{0});

    // A run misses at most twice per lane, so 127 runs fit a byte lane.
    constexpr size_t kFlushRuns = 127;
    const uint32_t *run = runs.runs.data();
    const uint32_t *const last = run + runs.runs.size();
    while (run != last) {
        const uint32_t *const flush =
            run + std::min<size_t>(kFlushRuns, last - run);
        uint64_t low = 0;  // lanes 0-7, one byte each
        uint64_t high = 0; // lanes 8-15
        for (; run != flush; ++run) {
            const DistinctRow &d = runs.distinct[*run >> 2];
            const uint32_t steps = *run & 3u;
            uint32_t *cell = cells.data() + d.cell;
            // A not-taken step is a taken step on the complemented
            // counter (3 - v), so flip not-taken rows' counters in and
            // out and step toward taken.
            const uint32_t flip = (d.row >> kOutcomeBit) - 1u;
            const uint32_t gathered = ((cell[0] & d.lanes[0]) |
                                       (cell[1] & d.lanes[1]) |
                                       (cell[2] & d.lanes[2])) ^ flip;
            const uint32_t h = gathered & 0xffffu;
            const uint32_t l = gathered >> 16;
            // Closed form of min(length, 3) taken steps from (h, l):
            // step 1 misses where h = 0 and gives (h|l, h|~l); step 2
            // misses where h = l = 0 and gives (1, h|l); step 3 gives
            // (1, 1) and never misses.
            const uint32_t two = 0u - uint32_t{steps >= 2};
            const uint32_t three = 0u - uint32_t{steps >= 3};
            const uint32_t miss1 = ~h;
            const uint32_t miss2 = two & ~(h | l);
            const uint32_t h_next = h | l | two;
            const uint32_t l_next = three | h | (~l ^ two);
            const uint32_t stepped =
                ((h_next & 0xffffu) | l_next << 16) ^ flip;
            for (unsigned s = 0; s < 3; ++s)
                cell[s] = (cell[s] & ~d.lanes[s]) | (stepped & d.lanes[s]);
            low += kSpread[miss1 & 0xffu] + kSpread[miss2 & 0xffu];
            high += kSpread[(miss1 >> 8) & 0xffu] +
                kSpread[(miss2 >> 8) & 0xffu];
        }
        for (unsigned c = 0; c < 8; ++c) {
            misses[c] += (low >> (8 * c)) & 0xffu;
            if (c < 7)
                misses[8 + c] += (high >> (8 * c)) & 0xffu;
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
    double mined = 0.0;
    const trace::SoABlocks &soa = trace.soa();
    std::vector<RecordedBranch> recorded(soa.staticCount());
    {
        // Each phase walks the trace itself, so neither phase's walk
        // and per-window tables outlive it, and the miner's tag tables
        // are freed before the rows grow.
        std::vector<std::vector<IdTag>> pools;
        {
            CandidateMiner miner(config.historyDepth,
                                 config.perBranchTagCap);
            miner.mine(trace, config.mineConditionals);
            mined = cpu_now();
            pools = assignCandidatePools(soa, miner, config_, recorded);
        }
        WindowWalk walk(soa, config.historyDepth);
        recordRows(walk, pools, recorded);
        obs::count(obs::ids().oracleWindows, walk.windowCount());
    }
    std::vector<BranchSelection> selections(soa.staticCount());
    for (size_t id = 0; id < recorded.size(); ++id) {
        const std::vector<uint32_t> &rows = recorded[id].rows;
        BranchSelection &sel = selections[id];
        sel.pc = soa.staticPcs()[id];
        sel.execs = rows.size();
        for (uint32_t row : rows)
            sel.taken += row >> kOutcomeBit;
    }
    double recorded_at = cpu_now();
    double select_cpu = select(recorded, selections, timed);
    branches_ = rowsFromIds(
        soa.staticPcs(), selections,
        [](const BranchSelection &sel) { return sel.execs != 0; });
    if (timed) {
        obs::observe(obs::ids().simPhaseOracleMineCpuSeconds,
                     mined - start);
        obs::observe(obs::ids().simPhaseOracleRecordCpuSeconds,
                     recorded_at - mined);
        obs::observe(obs::ids().simPhaseOracleSelectCpuSeconds,
                     select_cpu);
    }
}

std::vector<Tag>
candidatePool(const CandidateMiner &miner, uint64_t pc,
              const OracleConfig &config)
{
    std::vector<Tag> pool;
    // Over-fetch so a method filter still fills the pool.
    for (const ScoredCandidate &cand :
         miner.topCandidates(pc, 2 * config.candidatePool)) {
        bool is_occurrence = cand.tag.method() == TagMethod::Occurrence;
        if (config.tagFilter == OracleConfig::TagFilter::OccurrenceOnly &&
            !is_occurrence)
            continue;
        if (config.tagFilter == OracleConfig::TagFilter::BackwardOnly &&
            is_occurrence)
            continue;
        pool.push_back(cand.tag);
        if (pool.size() >= config.candidatePool)
            break;
    }
    return pool;
}

std::vector<std::vector<IdTag>>
assignCandidatePools(const trace::SoABlocks &soa,
                     const CandidateMiner &miner, const OracleConfig &config,
                     std::vector<RecordedBranch> &branches)
{
    // Every mined tag names a branch of this trace, so each pc resolves.
    std::vector<uint32_t> id_of(soa.staticCount());
    std::iota(id_of.begin(), id_of.end(), 0u);
    const PcRows<uint32_t> ids = rowsFromIds(soa.staticPcs(), id_of,
                                             [](uint32_t) { return true; });

    std::vector<std::vector<IdTag>> pools(soa.staticCount());
    for (size_t id = 0; id < soa.staticCount(); ++id) {
        const std::vector<Tag> &candidates = branches[id].candidates =
            candidatePool(miner, soa.staticPcs()[id], config);
        for (size_t c = 0; c < candidates.size(); ++c) {
            const uint32_t *tag_id = findRow(ids, candidates[c].pc());
            panicIf(tag_id == nullptr, "oracle candidate outside the trace");
            pools[id].push_back({*tag_id, candidates[c].method(),
                                 candidates[c].num(),
                                 static_cast<uint8_t>(c)});
        }
    }
    return pools;
}

void
recordRows(WindowWalk &walk, const std::vector<std::vector<IdTag>> &pools,
           std::vector<RecordedBranch> &branches)
{
    panicIf(walk.walked() != 0, "record: the walk has started");
    // Each branch's rows are allocated once, at its execution count.
    const trace::SoABlocks &soa = walk.soa();
    std::vector<uint64_t> execs(branches.size());
    for (const trace::SoABlocks::Segment &seg : soa.conditionalSegments())
        for (size_t i = seg.begin; i < seg.begin + seg.count; ++i)
            ++execs[soa.staticIndex(i)];
    for (size_t id = 0; id < branches.size(); ++id)
        branches[id].rows.reserve(execs[id]);

    // Per window: its branch, which candidates are in its path and,
    // per in-path candidate, the window entry it reads. base sets every
    // in-path field to NotTaken (01); a taken entry flips its field to
    // Taken (10). Filled in at each window's first step.
    struct WindowFields
    {
        uint32_t branch = 0;
        uint32_t base = 0;
        uint16_t inPath = 0;
        std::array<uint8_t, 15> position{};
    };
    PageVector<WindowFields> fields;
    fields.reserve(4096 / sizeof(WindowFields)); // a page to start

    // The window's pool by tag, in 32 open-addressed slots (0 = empty,
    // else 1 + the candidate's field).
    constexpr unsigned kSlots = 32;
    auto tag_key = [](uint64_t id, TagMethod method, uint8_t num) {
        return static_cast<uint32_t>(id << 9 |
                                     static_cast<uint32_t>(method) << 8 |
                                     num);
    };
    auto home = [](uint32_t key) {
        return static_cast<unsigned>((key * 0x9e3779b97f4a7c15ull) >> 59);
    };
    std::array<uint32_t, kSlots> slot_key{};
    std::array<uint8_t, kSlots> slot_field{};
    auto fields_of = [&](uint32_t w) {
        WindowFields f;
        f.branch = walk.branch(w);
        const std::vector<IdTag> &pool = pools[f.branch];
        if (pool.empty())
            return f;
        slot_field.fill(0);
        uint64_t pool_ids = 0; // bit id % 64 set for each candidate's id
        for (const IdTag &candidate : pool) {
            pool_ids |= uint64_t(1) << (candidate.id & 63);
            const uint32_t key =
                tag_key(candidate.id, candidate.method, candidate.num);
            unsigned slot = home(key);
            while (slot_field[slot] != 0)
                slot = (slot + 1) % kSlots;
            slot_key[slot] = key;
            slot_field[slot] = static_cast<uint8_t>(candidate.field + 1);
        }
        // A window lists each tag once, so each field is set once.
        walk.forEachTag(w, [&](unsigned position, uint64_t id,
                               TagMethod method, uint8_t num) {
            if ((pool_ids >> (id & 63) & 1) == 0)
                return;
            const uint32_t key = tag_key(id, method, num);
            for (unsigned slot = home(key); slot_field[slot] != 0;
                 slot = (slot + 1) % kSlots) {
                if (slot_key[slot] != key)
                    continue;
                const unsigned field = slot_field[slot] - 1u;
                f.base |= 1u << (2 * field);
                f.inPath |= static_cast<uint16_t>(1u << field);
                f.position[field] = static_cast<uint8_t>(position);
                break;
            }
        });
        return f;
    };

    uint64_t outcomes = 0; // bit p: outcome of the (p+1)-th last conditional
    auto record = [&](uint32_t step) {
        // Window ids count up in order of first appearance, so a new
        // window's id is the number of windows seen so far.
        const uint32_t w = step >> 1;
        if (w == fields.size())
            fields.push_back(fields_of(w));
        const WindowFields &f = fields[w];
        uint32_t row = (step & 1u) << kOutcomeBit | f.base;
        for (unsigned in_path = f.inPath; in_path != 0;
             in_path &= in_path - 1) {
            const unsigned c = static_cast<unsigned>(__builtin_ctz(in_path));
            const uint32_t taken =
                static_cast<uint32_t>(outcomes >> f.position[c]) & 1;
            row ^= taken * 3u << (2 * c);
        }
        branches[f.branch].rows.push_back(row);
        outcomes = outcomes << 1 | (step & 1u);
    };
    walk.walkTo(0, record);
}

std::vector<RecordedBranch>
recordStates(WindowWalk &walk, const CandidateMiner &miner,
             const OracleConfig &config)
{
    std::vector<RecordedBranch> branches(walk.soa().staticCount());
    recordRows(walk, assignCandidatePools(walk.soa(), miner, config, branches),
               branches);
    return branches;
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
                              unsigned max_select, unsigned saturation_steps)
{
    panicIf(k > 15 || max_select > 3, "greedySelect out of range");
    panicIf(saturation_steps == 0 || saturation_steps > kSaturationSteps,
            "greedySelect saturation steps out of range");
    GreedySelection out;
    if (k == 0) {
        std::fill_n(out.correct.begin(), max_select, replayScore(rows, {}));
        return out;
    }
    RowRuns runs = internRuns(rows, saturation_steps);
    bool in_set[15] = {};
    std::array<uint64_t, 15> misses{};
    uint64_t last_score = 0;

    for (unsigned size = 1; size <= max_select; ++size) {
        if (out.picked < k) {
            scoreRuns(runs, out.order.data(), out.picked, misses.data());
            unsigned best = k;
            for (unsigned c = 0; c < k; ++c) {
                if (!in_set[c] && (best == k || misses[c] < misses[best]))
                    best = c;
            }
            out.order[out.picked++] = best;
            in_set[best] = true;
            last_score = rows.size() - misses[best];
        }
        // When candidates run out, larger sizes inherit the best smaller
        // set (there is nothing more to include in the history).
        out.correct[size - 1] = last_score;
    }
    return out;
}

void
SelectiveOracle::selectGreedy(const RecordedBranch &data,
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
SelectiveOracle::selectExhaustive(const RecordedBranch &data,
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
SelectiveOracle::select(const std::vector<RecordedBranch> &recorded,
                        std::vector<BranchSelection> &selections,
                        bool timed) const
{
    // Branches are independent (each task reads immutable recorded rows
    // and writes only its own BranchSelection), so the pool's tasks
    // claim them one static id at a time. Per-task CPU seconds, summed in
    // index order once the pool is done, so the select phase counts
    // every thread that ran part of it.
    std::vector<double> task_cpu(timed ? selections.size() : 0);
    parallelFor(globalPool(), selections.size(), [&](size_t id) {
        if (selections[id].execs == 0)
            return;
        double start = timed ? obs::threadCpuSeconds() : 0.0;
        if (config_.exhaustive)
            selectExhaustive(recorded[id], selections[id]);
        else
            selectGreedy(recorded[id], selections[id]);
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
