#include "check/ref_models.hpp"

#include "util/logging.hpp"

namespace copra::check {

using predictor::TwoLevelConfig;

uint64_t
refFold(const std::vector<bool> &history, unsigned length, unsigned width)
{
    // Outcome j (0 = newest) lands in output bit j % width: chunk
    // number j / width contributes its bit at in-chunk offset j % width,
    // and chunks XOR together.
    uint64_t out = 0;
    for (unsigned j = 0; j < length && j < history.size(); ++j) {
        bool bit = history[history.size() - 1 - j];
        if (bit)
            out ^= uint64_t(1) << (j % width);
    }
    return out;
}

// ---------------------------------------------------------------------------
// RefTwoLevel

RefTwoLevel::RefTwoLevel(const TwoLevelConfig &config)
    : config_(config)
{
    fatalIf(config.historyBits == 0 || config.historyBits > 32,
            "ref two-level history bits must be in 1..32");
    fatalIf(config.counterBits == 0 || config.counterBits > 8,
            "ref two-level counter bits must be in 1..8");
    counterMax_ = (1 << config.counterBits) - 1;
    // Weakly-not-taken: the largest value still predicting not-taken.
    counterInit_ = (counterMax_ + 1) / 2 - 1;
}

uint64_t
RefTwoLevel::historyOf(uint64_t pc) const
{
    uint64_t row = 0;
    if (config_.scope == TwoLevelConfig::Scope::PerAddress) {
        // Branches are word aligned; the BHT is indexed by the low
        // bhtBits bits of the word address.
        row = (pc >> 2) % (uint64_t(1) << config_.bhtBits);
    }
    auto it = histories_.find(row);
    return it == histories_.end() ? 0 : it->second;
}

uint64_t
RefTwoLevel::phtIndexOf(uint64_t pc) const
{
    uint64_t history_mask = (uint64_t(1) << config_.historyBits) - 1;
    uint64_t pht_entries = uint64_t(1) << config_.phtBits;
    uint64_t hist = historyOf(pc) & history_mask;
    uint64_t word = pc >> 2;
    switch (config_.index) {
      case TwoLevelConfig::Index::HistoryOnly:
        return hist % pht_entries;
      case TwoLevelConfig::Index::Concat: {
        uint64_t select = word % (uint64_t(1) << config_.pcSelectBits);
        return ((select << config_.historyBits) | hist) % pht_entries;
      }
      case TwoLevelConfig::Index::Xor:
        return (hist ^ word) % pht_entries;
    }
    return 0;
}

int
RefTwoLevel::counterOf(uint64_t index) const
{
    auto it = counters_.find(index);
    return it == counters_.end() ? counterInit_ : it->second;
}

bool
RefTwoLevel::predict(const trace::BranchRecord &br) noexcept
{
    // Taken iff the counter is past the weakly-not-taken init value,
    // i.e. its most significant bit is set.
    return counterOf(phtIndexOf(br.pc)) > counterInit_;
}

void
RefTwoLevel::update(const trace::BranchRecord &br, bool taken) noexcept
{
    // Train the counter selected under the *pre-update* history, then
    // shift the outcome into the first-level history.
    uint64_t index = phtIndexOf(br.pc);
    int counter = counterOf(index);
    if (taken)
        counter = counter + 1;
    else
        counter = counter - 1;
    if (counter < 0)
        counter = 0;
    if (counter > counterMax_)
        counter = counterMax_;
    counters_[index] = counter;

    uint64_t row = 0;
    if (config_.scope == TwoLevelConfig::Scope::PerAddress)
        row = (br.pc >> 2) % (uint64_t(1) << config_.bhtBits);
    uint64_t history_mask = (uint64_t(1) << config_.historyBits) - 1;
    uint64_t hist = 0;
    auto it = histories_.find(row);
    if (it != histories_.end())
        hist = it->second;
    histories_[row] = ((hist << 1) | (taken ? 1 : 0)) & history_mask;
}

void
RefTwoLevel::reset()
{
    histories_.clear();
    counters_.clear();
}

std::string
RefTwoLevel::name() const
{
    return "ref-" + config_.label;
}

// ---------------------------------------------------------------------------
// RefBimodal

RefBimodal::RefBimodal(unsigned table_bits)
    : tableBits_(table_bits)
{
    fatalIf(table_bits == 0 || table_bits > 30,
            "ref bimodal table bits must be in 1..30");
}

bool
RefBimodal::predict(const trace::BranchRecord &br) noexcept
{
    uint64_t index = (br.pc >> 2) % (uint64_t(1) << tableBits_);
    auto it = counters_.find(index);
    int counter = it == counters_.end() ? 1 : it->second;
    return counter >= 2;
}

void
RefBimodal::update(const trace::BranchRecord &br, bool taken) noexcept
{
    uint64_t index = (br.pc >> 2) % (uint64_t(1) << tableBits_);
    auto it = counters_.find(index);
    int counter = it == counters_.end() ? 1 : it->second;
    counter += taken ? 1 : -1;
    if (counter < 0)
        counter = 0;
    if (counter > 3)
        counter = 3;
    counters_[index] = counter;
}

void
RefBimodal::reset()
{
    counters_.clear();
}

std::string
RefBimodal::name() const
{
    return "ref-bimodal(" + std::to_string(tableBits_) + "b)";
}

// ---------------------------------------------------------------------------
// RefLoop

bool
RefLoop::predict(const trace::BranchRecord &br) noexcept
{
    auto it = table_.find(br.pc);
    if (it == table_.end())
        return true; // cold: default taken
    const State &st = it->second;
    // Body direction for the learned trip count, then one exit
    // prediction of the opposite direction.
    if (st.run < st.trip)
        return st.dir;
    return !st.dir;
}

void
RefLoop::update(const trace::BranchRecord &br, bool taken) noexcept
{
    auto it = table_.find(br.pc);
    if (it == table_.end()) {
        State st;
        st.dir = taken;
        st.run = 1;
        st.trip = 255;
        table_[br.pc] = st;
        return;
    }
    State &st = it->second;
    if (taken == st.dir) {
        if (st.run < 255)
            st.run = st.run + 1;
    } else if (st.run == 0) {
        // Two consecutive opposite outcomes: the body direction we
        // learned was wrong (or this is a while-type branch); flip it.
        st.dir = taken;
        st.run = 1;
        st.trip = 255;
    } else {
        // The run ended: its length is the new learned trip count.
        st.trip = st.run;
        st.run = 0;
    }
}

void
RefLoop::reset()
{
    table_.clear();
}

// ---------------------------------------------------------------------------
// RefBlockPattern

bool
RefBlockPattern::predict(const trace::BranchRecord &br) noexcept
{
    auto it = table_.find(br.pc);
    if (it == table_.end())
        return true; // cold: default taken
    const State &st = it->second;
    if (st.run < st.lastRun[st.dir ? 1 : 0])
        return st.dir;
    return !st.dir;
}

void
RefBlockPattern::update(const trace::BranchRecord &br, bool taken) noexcept
{
    auto it = table_.find(br.pc);
    if (it == table_.end()) {
        State st;
        st.dir = taken;
        st.run = 1;
        table_[br.pc] = st;
        return;
    }
    State &st = it->second;
    if (taken == st.dir) {
        if (st.run < 255)
            st.run = st.run + 1;
    } else {
        st.lastRun[st.dir ? 1 : 0] = st.run;
        st.dir = taken;
        st.run = 1;
    }
}

void
RefBlockPattern::reset()
{
    table_.clear();
}

// ---------------------------------------------------------------------------
// RefFixedPattern

RefFixedPattern::RefFixedPattern(unsigned k)
    : k_(k)
{
    fatalIf(k == 0 || k > 32, "ref fixed-pattern k must be in 1..32");
}

bool
RefFixedPattern::predict(const trace::BranchRecord &br) noexcept
{
    auto it = outcomes_.find(br.pc);
    if (it == outcomes_.end())
        return true;
    const std::vector<bool> &seen = it->second;
    if (seen.size() < k_)
        return true; // cold default until k outcomes exist
    return seen[seen.size() - k_];
}

void
RefFixedPattern::update(const trace::BranchRecord &br, bool taken) noexcept
{
    outcomes_[br.pc].push_back(taken);
}

void
RefFixedPattern::reset()
{
    outcomes_.clear();
}

std::string
RefFixedPattern::name() const
{
    return "ref-fixed-k(" + std::to_string(k_) + ")";
}

// ---------------------------------------------------------------------------
// RefTage

RefTage::RefTage(const predictor::TageConfig &config)
    : config_(config), tables_(config.numTables)
{
    fatalIf(config.numTables == 0, "ref tage needs tagged tables");
}

uint64_t
RefTage::indexOf(unsigned table, uint64_t pc) const
{
    unsigned length = config_.historyLength(table);
    uint64_t word = pc >> 2;
    uint64_t folded = refFold(history_, length, config_.tableBits);
    uint64_t idx = folded ^ word ^ (word >> (table + 1));
    return idx % (uint64_t(1) << config_.tableBits);
}

int
RefTage::tagOf(unsigned table, uint64_t pc) const
{
    unsigned length = config_.historyLength(table);
    uint64_t word = pc >> 2;
    uint64_t f1 = refFold(history_, length, config_.tagBits);
    uint64_t f2 = config_.tagBits > 1
        ? refFold(history_, length, config_.tagBits - 1) << 1
        : 0;
    return static_cast<int>((word ^ f1 ^ f2) %
                            (uint64_t(1) << config_.tagBits));
}

RefTage::Entry
RefTage::entryOf(unsigned table, uint64_t index) const
{
    auto it = tables_[table].find(index);
    // Absent entries are real: tag 0, counter 0 (strongly not-taken),
    // useful 0 — the optimized dense arrays start exactly there, and a
    // branch whose computed tag is 0 *does* match them.
    return it == tables_[table].end() ? Entry{} : it->second;
}

int
RefTage::baseCounterOf(uint64_t pc) const
{
    uint64_t index = (pc >> 2) % (uint64_t(1) << config_.baseBits);
    auto it = base_.find(index);
    return it == base_.end() ? 1 : it->second; // init weakly-not-taken
}

RefTage::Lookup
RefTage::lookup(uint64_t pc) const
{
    Lookup out;
    bool base_pred = baseCounterOf(pc) >= 2;
    out.prediction = base_pred;
    out.altPrediction = base_pred;
    for (int t = static_cast<int>(config_.numTables) - 1; t >= 0; --t) {
        Entry e = entryOf(t, indexOf(t, pc));
        if (e.tag != tagOf(t, pc))
            continue;
        int half = 1 << (config_.counterBits - 1);
        bool pred = e.ctr >= half;
        if (out.provider < 0) {
            out.provider = t;
            out.prediction = pred;
            out.altPrediction = base_pred;
        } else {
            out.altPrediction = pred;
            break;
        }
    }
    return out;
}

bool
RefTage::predict(const trace::BranchRecord &br) noexcept
{
    return lookup(br.pc).prediction;
}

void
RefTage::update(const trace::BranchRecord &br, bool taken) noexcept
{
    Lookup l = lookup(br.pc);
    bool mispredict = l.prediction != taken;
    int ctr_max = (1 << config_.counterBits) - 1;
    int useful_max = (1 << config_.usefulBits) - 1;

    if (l.provider >= 0) {
        uint64_t index = indexOf(l.provider, br.pc);
        Entry e = entryOf(l.provider, index);
        e.ctr += taken ? 1 : -1;
        if (e.ctr < 0)
            e.ctr = 0;
        if (e.ctr > ctr_max)
            e.ctr = ctr_max;
        if (l.prediction != l.altPrediction) {
            e.useful += l.prediction == taken ? 1 : -1;
            if (e.useful < 0)
                e.useful = 0;
            if (e.useful > useful_max)
                e.useful = useful_max;
        }
        tables_[l.provider][index] = e;
    } else {
        uint64_t index = (br.pc >> 2) % (uint64_t(1) << config_.baseBits);
        int counter = baseCounterOf(br.pc);
        counter += taken ? 1 : -1;
        if (counter < 0)
            counter = 0;
        if (counter > 3)
            counter = 3;
        base_[index] = counter;
    }

    if (mispredict &&
        l.provider < static_cast<int>(config_.numTables) - 1) {
        bool allocated = false;
        for (unsigned t = l.provider + 1; t < config_.numTables; ++t) {
            uint64_t index = indexOf(t, br.pc);
            Entry cand = entryOf(t, index);
            if (cand.useful == 0) {
                Entry fresh;
                fresh.tag = tagOf(t, br.pc);
                int weak_taken = 1 << (config_.counterBits - 1);
                fresh.ctr = taken ? weak_taken : weak_taken - 1;
                fresh.useful = 0;
                tables_[t][index] = fresh;
                allocated = true;
                break;
            }
        }
        if (!allocated) {
            for (unsigned t = l.provider + 1; t < config_.numTables; ++t) {
                uint64_t index = indexOf(t, br.pc);
                Entry cand = entryOf(t, index);
                if (cand.useful > 0) {
                    cand.useful = cand.useful - 1;
                    tables_[t][index] = cand;
                }
            }
        }
    }

    history_.push_back(taken);

    updates_ = updates_ + 1;
    if (config_.agingPeriod != 0 && updates_ % config_.agingPeriod == 0) {
        for (auto &table : tables_)
            for (auto &kv : table)
                kv.second.useful = kv.second.useful / 2;
    }
}

void
RefTage::reset()
{
    base_.clear();
    for (auto &table : tables_)
        table.clear();
    history_.clear();
    updates_ = 0;
}

std::string
RefTage::name() const
{
    return "ref-" + config_.label;
}

// ---------------------------------------------------------------------------
// RefPerceptron

RefPerceptron::RefPerceptron(const predictor::PerceptronConfig &config)
    : config_(config), tables_(config.numTables),
      theta_(config.initialTheta)
{
    fatalIf(config.numTables < 2, "ref perceptron needs >= 2 tables");
}

uint64_t
RefPerceptron::indexOf(unsigned table, uint64_t pc) const
{
    uint64_t word = pc >> 2;
    uint64_t idx;
    if (table == 0) {
        idx = word;
    } else {
        uint64_t folded = refFold(history_, table * config_.segmentBits,
                                  config_.tableBits);
        idx = word ^ (word >> table) ^ folded;
    }
    return idx % (uint64_t(1) << config_.tableBits);
}

int
RefPerceptron::weightOf(unsigned table, uint64_t index) const
{
    auto it = tables_[table].find(index);
    return it == tables_[table].end() ? 0 : it->second;
}

int
RefPerceptron::sumOf(uint64_t pc) const
{
    int sum = 0;
    for (unsigned t = 0; t < config_.numTables; ++t)
        sum += weightOf(t, indexOf(t, pc));
    return sum;
}

bool
RefPerceptron::predict(const trace::BranchRecord &br) noexcept
{
    return sumOf(br.pc) >= 0;
}

void
RefPerceptron::update(const trace::BranchRecord &br, bool taken) noexcept
{
    int yout = sumOf(br.pc);
    bool predicted = yout >= 0;
    bool mispredict = predicted != taken;
    int magnitude = yout < 0 ? -yout : yout;
    bool weak = magnitude <= theta_;

    if (mispredict || weak) {
        for (unsigned t = 0; t < config_.numTables; ++t) {
            uint64_t index = indexOf(t, br.pc);
            int w = weightOf(t, index);
            w += taken ? 1 : -1;
            if (w > config_.weightMax)
                w = config_.weightMax;
            if (w < config_.weightMin)
                w = config_.weightMin;
            tables_[t][index] = w;
        }
    }

    if (mispredict) {
        thetaCtr_ = thetaCtr_ + 1;
        if (thetaCtr_ >= config_.thetaCounterSat) {
            theta_ = theta_ + 1;
            thetaCtr_ = 0;
        }
    } else if (weak) {
        thetaCtr_ = thetaCtr_ - 1;
        if (thetaCtr_ <= -config_.thetaCounterSat) {
            if (theta_ > 1)
                theta_ = theta_ - 1;
            thetaCtr_ = 0;
        }
    }

    history_.push_back(taken);
}

void
RefPerceptron::reset()
{
    for (auto &table : tables_)
        table.clear();
    history_.clear();
    theta_ = config_.initialTheta;
    thetaCtr_ = 0;
}

std::string
RefPerceptron::name() const
{
    return "ref-" + config_.label;
}

// ---------------------------------------------------------------------------
// RefTournament

RefTournament::RefTournament(const predictor::TournamentConfig &config)
    : config_(config),
      global_(TwoLevelConfig::gshare(config.globalHistory)),
      local_(TwoLevelConfig::pas(config.localHistory, config.localBhtBits,
                                 config.localSelectBits))
{
}

bool
RefTournament::btbHit(uint64_t pc) const
{
    if (config_.btb.isPerfect())
        return btbPerfect_.find(pc) != btbPerfect_.end();
    uint64_t set = (pc >> 2) % (uint64_t(1) << config_.btb.setBits);
    auto it = btbSets_.find(set);
    if (it == btbSets_.end())
        return false;
    for (const BtbEntry &entry : it->second)
        if (entry.pc == pc)
            return true;
    return false;
}

void
RefTournament::btbAccess(uint64_t pc)
{
    if (config_.btb.isPerfect()) {
        btbPerfect_[pc] = true;
        return;
    }
    uint64_t set = (pc >> 2) % (uint64_t(1) << config_.btb.setBits);
    std::vector<BtbEntry> &entries = btbSets_[set];
    btbTick_ = btbTick_ + 1;
    for (BtbEntry &entry : entries) {
        if (entry.pc == pc) {
            entry.lastUse = btbTick_;
            return;
        }
    }
    if (entries.size() < config_.btb.ways) {
        entries.push_back({pc, btbTick_});
        return;
    }
    // Evict the least recently used way — first index on ties, exactly
    // as the optimized table scans.
    size_t victim = 0;
    for (size_t i = 1; i < entries.size(); ++i)
        if (entries[i].lastUse < entries[victim].lastUse)
            victim = i;
    entries[victim] = {pc, btbTick_};
}

bool
RefTournament::predict(const trace::BranchRecord &br) noexcept
{
    bool global_pred = global_.predict(br);
    bool local_pred = local_.predict(br);
    uint64_t index = (br.pc >> 2) % (uint64_t(1) << config_.chooserBits);
    auto it = chooser_.find(index);
    int counter = it == chooser_.end() ? 1 : it->second;
    bool direction = counter >= 2 ? global_pred : local_pred;
    // BTB miss model: predicted-taken without a buffered target falls
    // through to not-taken.
    if (direction && !btbHit(br.pc))
        return false;
    return direction;
}

void
RefTournament::update(const trace::BranchRecord &br, bool taken) noexcept
{
    bool global_pred = global_.predict(br);
    bool local_pred = local_.predict(br);
    if (global_pred != local_pred) {
        uint64_t index =
            (br.pc >> 2) % (uint64_t(1) << config_.chooserBits);
        auto it = chooser_.find(index);
        int counter = it == chooser_.end() ? 1 : it->second;
        counter += global_pred == taken ? 1 : -1;
        if (counter < 0)
            counter = 0;
        if (counter > 3)
            counter = 3;
        chooser_[index] = counter;
    }
    global_.update(br, taken);
    local_.update(br, taken);
    if (taken)
        btbAccess(br.pc);
}

void
RefTournament::observe(const trace::BranchRecord &br) noexcept
{
    using trace::BranchKind;
    if (br.kind == BranchKind::Jump || br.kind == BranchKind::Call)
        btbAccess(br.pc);
    // Returns touch only the (stats-only) return stack; no model state.
}

void
RefTournament::reset()
{
    global_.reset();
    local_.reset();
    chooser_.clear();
    btbPerfect_.clear();
    btbSets_.clear();
    btbTick_ = 0;
}

std::string
RefTournament::name() const
{
    return "ref-" + config_.label;
}

} // namespace copra::check
