#include "predictor/perceptron.hpp"

#include <cstdlib>

#include "obs/instruments.hpp"
#include "util/logging.hpp"

namespace copra::predictor {

Perceptron::Perceptron(const PerceptronConfig &config)
    : config_(config), theta_(config.initialTheta)
{
    fatalIf(config_.tableBits == 0 || config_.tableBits > 24,
            "perceptron table bits must be in 1..24");
    fatalIf(config_.numTables < 2 || config_.numTables > kMaxTables,
            "perceptron needs 2..16 tables (one is the bias table)");
    fatalIf(config_.segmentBits == 0 || config_.segmentBits > 32,
            "perceptron segment bits must be in 1..32");
    fatalIf(config_.historyBits() > FoldedHistory::kMaxBits,
            "perceptron history exceeds FoldedHistory::kMaxBits");
    fatalIf(config_.weightMin >= 0 || config_.weightMax <= 0,
            "perceptron weight range must straddle zero");
    fatalIf(config_.weightMin < -32768 || config_.weightMax > 32767,
            "perceptron weights must fit int16");
    fatalIf(config_.initialTheta < 1, "perceptron theta must be >= 1");
    fatalIf(config_.thetaCounterSat < 1,
            "perceptron theta counter saturation must be >= 1");

    tables_.assign(config_.numTables,
                   std::vector<int16_t>(size_t(1) << config_.tableBits, 0));
    folds_.assign(config_.numTables, 0);
    for (unsigned t = 1; t < config_.numTables; ++t)
        folds_[t] = history_.track(t * config_.segmentBits, config_.tableBits);
}

Perceptron::~Perceptron() = default;

size_t
Perceptron::indexOf(unsigned table, uint64_t pc) const noexcept
{
    uint64_t word = pc >> 2;
    uint64_t idx;
    if (table == 0) {
        // Bias table: address only, no history.
        idx = word;
    } else {
        // Table t sees history segment [(t-1)*S, t*S): fold the newest
        // t*S bits and XOR away the fold of the newest (t-1)*S bits
        // would *not* isolate the segment (folding is not prefix-local),
        // so instead fold the full window seen so far at each depth —
        // the windows nest, giving each table a progressively deeper
        // view, O-GEHL style.
        uint64_t folded = history_.folded(folds_[table]);
        idx = word ^ (word >> table) ^ folded;
    }
    return idx & ((size_t(1) << config_.tableBits) - 1);
}

int
Perceptron::sumOf(uint64_t pc, size_t *index) const noexcept
{
    int sum = 0;
    for (unsigned t = 0; t < config_.numTables; ++t) {
        index[t] = indexOf(t, pc);
        sum += tables_[t][index[t]];
    }
    return sum;
}

int
Perceptron::clampWeight(int weight, bool taken) const noexcept
{
    int next = weight + (taken ? 1 : -1);
    if (next > config_.weightMax)
        return config_.weightMax;
    if (next < config_.weightMin)
        return config_.weightMin;
    return next;
}

bool
Perceptron::step(const trace::BranchRecord &br, bool taken) noexcept
{
    size_t index[kMaxTables];
    int yout = sumOf(br.pc, index);
    bool predicted = yout >= 0;
    bool mispredict = predicted != taken;
    bool weak = std::abs(yout) <= theta_;

    if (mispredict || weak) {
        for (unsigned t = 0; t < config_.numTables; ++t) {
            int16_t &w = tables_[t][index[t]];
            w = static_cast<int16_t>(clampWeight(w, taken));
        }
        ++stats_.trainEvents;
    }

    // Seznec's threshold fitting: mispredicts say theta is too low
    // (training stops too early), correct-but-weak says it is too high.
    if (mispredict) {
        if (++thetaCtr_ >= config_.thetaCounterSat) {
            ++theta_;
            thetaCtr_ = 0;
            ++stats_.thresholdAdapts;
            obs::count(obs::ids().perceptronThresholdAdapts);
        }
    } else if (weak) {
        if (--thetaCtr_ <= -config_.thetaCounterSat) {
            if (theta_ > 1)
                --theta_;
            thetaCtr_ = 0;
            ++stats_.thresholdAdapts;
            obs::count(obs::ids().perceptronThresholdAdapts);
        }
    }

    history_.push(taken);
    return predicted;
}

std::string
Perceptron::name() const
{
    return config_.label;
}

int
Perceptron::maxAbsWeight() const
{
    int out = 0;
    for (const auto &table : tables_)
        for (int16_t w : table) {
            int a = w < 0 ? -w : w;
            if (a > out)
                out = a;
        }
    return out;
}

} // namespace copra::predictor
