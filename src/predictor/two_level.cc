#include "predictor/two_level.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace copra::predictor {

TwoLevelConfig
TwoLevelConfig::gshare(unsigned h)
{
    TwoLevelConfig c;
    c.scope = Scope::Global;
    c.index = Index::Xor;
    c.historyBits = h;
    c.phtBits = h;
    c.label = "gshare(h=" + std::to_string(h) + ")";
    return c;
}

TwoLevelConfig
TwoLevelConfig::gag(unsigned h)
{
    TwoLevelConfig c;
    c.scope = Scope::Global;
    c.index = Index::HistoryOnly;
    c.historyBits = h;
    c.phtBits = h;
    c.label = "GAg(h=" + std::to_string(h) + ")";
    return c;
}

TwoLevelConfig
TwoLevelConfig::gas(unsigned h, unsigned pc_select)
{
    TwoLevelConfig c;
    c.scope = Scope::Global;
    c.index = Index::Concat;
    c.historyBits = h;
    c.pcSelectBits = pc_select;
    c.phtBits = h + pc_select;
    c.label = "GAs(h=" + std::to_string(h) + ",s=" +
        std::to_string(pc_select) + ")";
    return c;
}

TwoLevelConfig
TwoLevelConfig::pas(unsigned h, unsigned bht_bits, unsigned pc_select)
{
    TwoLevelConfig c;
    c.scope = Scope::PerAddress;
    c.index = Index::Concat;
    c.historyBits = h;
    c.bhtBits = bht_bits;
    c.pcSelectBits = pc_select;
    c.phtBits = h + pc_select;
    c.label = "PAs(h=" + std::to_string(h) + ",bht=" +
        std::to_string(bht_bits) + ",s=" + std::to_string(pc_select) + ")";
    return c;
}

TwoLevelConfig
TwoLevelConfig::pag(unsigned h, unsigned bht_bits)
{
    TwoLevelConfig c;
    c.scope = Scope::PerAddress;
    c.index = Index::HistoryOnly;
    c.historyBits = h;
    c.bhtBits = bht_bits;
    c.phtBits = h;
    c.label = "PAg(h=" + std::to_string(h) + ",bht=" +
        std::to_string(bht_bits) + ")";
    return c;
}

TwoLevel::TwoLevel(const TwoLevelConfig &config)
    : config_(config)
{
    fatalIf(config.historyBits == 0 || config.historyBits > 32,
            "two-level history bits must be in 1..32");
    fatalIf(config.phtBits == 0 || config.phtBits > 28,
            "two-level PHT bits must be in 1..28");
    fatalIf(config.scope == TwoLevelConfig::Scope::PerAddress &&
            (config.bhtBits == 0 || config.bhtBits > 24),
            "two-level BHT bits must be in 1..24");
    fatalIf(config.counterBits == 0 || config.counterBits > 8,
            "two-level counter bits must be in 1..8");

    historyMask_ = (uint64_t(1) << config.historyBits) - 1;
    phtMask_ = (size_t(1) << config.phtBits) - 1;
    counterMax_ = static_cast<uint8_t>((1u << config.counterBits) - 1);
    // Weakly-not-taken: the largest value still predicting not-taken.
    counterInit_ = static_cast<uint8_t>((counterMax_ + 1) / 2 - 1);
    size_t n_hist = config.scope == TwoLevelConfig::Scope::Global
        ? 1 : (size_t(1) << config.bhtBits);
    histories_.assign(n_hist, 0);
    pht_.assign(size_t(1) << config.phtBits, counterInit_);
}

uint64_t &
TwoLevel::historyFor(uint64_t pc) noexcept
{
    if (config_.scope == TwoLevelConfig::Scope::Global)
        return histories_[0];
    size_t idx = (pc >> 2) & ((size_t(1) << config_.bhtBits) - 1);
    return histories_[idx];
}

uint64_t
TwoLevel::historyFor(uint64_t pc) const noexcept
{
    return const_cast<TwoLevel *>(this)->historyFor(pc);
}

size_t
TwoLevel::phtIndex(uint64_t pc) const noexcept
{
    uint64_t hist = historyFor(pc) & historyMask_;
    uint64_t pc_bits = pc >> 2;
    switch (config_.index) {
      case TwoLevelConfig::Index::HistoryOnly:
        return historyIndex(hist);
      case TwoLevelConfig::Index::Concat:
        return concatIndex(pc_bits, hist);
      case TwoLevelConfig::Index::Xor:
        return xorIndex(pc_bits, hist);
    }
    return 0;
}

bool
TwoLevel::trainCounter(uint8_t &counter, bool taken) const noexcept
{
    bool prediction = counter > counterInit_;
    if (taken) {
        if (counter < counterMax_)
            ++counter;
    } else {
        if (counter > 0)
            --counter;
    }
    return prediction == taken;
}

bool
TwoLevel::predict(const trace::BranchRecord &br) noexcept
{
    return pht_[phtIndex(br.pc)] > counterInit_;
}

void
TwoLevel::update(const trace::BranchRecord &br, bool taken) noexcept
{
    trainCounter(pht_[phtIndex(br.pc)], taken);
    uint64_t &hist = historyFor(br.pc);
    hist = ((hist << 1) | (taken ? 1 : 0)) & historyMask_;
}

uint64_t
TwoLevel::predictUpdateSoa(const SoaBatch &batch, uint8_t *correct_out) noexcept
{
    if (batch.count == 0)
        return 0;
    return config_.scope == TwoLevelConfig::Scope::Global
        ? runGlobalSoa(batch, correct_out)
        : runPerAddressSoa(batch, correct_out);
}

// Both batch loops hoist the index flavour out of the loop: train()
// takes the flavour as a lambda, so each switch arm is one
// specialized loop. Counter training is serial by nature — two
// branches in one batch may alias the same counter, and the second
// prediction must see the first update.

uint64_t
TwoLevel::runGlobalSoa(const SoaBatch &batch, uint8_t *correct_out) noexcept
{
    // The global history lives in a local for the whole batch: a PHT
    // store through uint8_t may alias any member, so a history kept in
    // histories_[0] would be reloaded after every counter update.
    uint64_t hist = histories_[0] & historyMask_;
    uint64_t n_correct = 0;
    auto train = [&](auto pht_index_of) {
        for (size_t i = 0; i < batch.count; ++i) {
            uint8_t t = batch.taken[i];
            bool correct =
                trainCounter(pht_[pht_index_of(batch.pc[i] >> 2, hist)],
                             t != 0);
            hist = ((hist << 1) | t) & historyMask_;
            n_correct += correct ? 1 : 0;
            if (correct_out)
                correct_out[i] = correct ? 1 : 0;
        }
    };
    switch (config_.index) {
      case TwoLevelConfig::Index::HistoryOnly:
        train([&](uint64_t, uint64_t h) { return historyIndex(h); });
        break;
      case TwoLevelConfig::Index::Concat:
        train([&](uint64_t pc_bits, uint64_t h) {
            return concatIndex(pc_bits, h);
        });
        break;
      case TwoLevelConfig::Index::Xor:
        train([&](uint64_t pc_bits, uint64_t h) {
            return xorIndex(pc_bits, h);
        });
        break;
    }
    histories_[0] = hist;
    return n_correct;
}

uint64_t
TwoLevel::runPerAddressSoa(const SoaBatch &batch, uint8_t *correct_out) noexcept
{
    const uint64_t bht_mask = (uint64_t(1) << config_.bhtBits) - 1;
    uint64_t n_correct = 0;
    auto train = [&](auto pht_index_of) {
        for (size_t i = 0; i < batch.count; ++i) {
            uint64_t pc_bits = batch.pc[i] >> 2;
            uint64_t &hist = histories_[pc_bits & bht_mask];
            uint8_t t = batch.taken[i];
            bool correct = trainCounter(
                pht_[pht_index_of(pc_bits, hist & historyMask_)], t != 0);
            hist = ((hist << 1) | t) & historyMask_;
            n_correct += correct ? 1 : 0;
            if (correct_out)
                correct_out[i] = correct ? 1 : 0;
        }
    };
    switch (config_.index) {
      case TwoLevelConfig::Index::HistoryOnly:
        train([&](uint64_t, uint64_t h) { return historyIndex(h); });
        break;
      case TwoLevelConfig::Index::Concat:
        train([&](uint64_t pc_bits, uint64_t h) {
            return concatIndex(pc_bits, h);
        });
        break;
      case TwoLevelConfig::Index::Xor:
        train([&](uint64_t pc_bits, uint64_t h) {
            return xorIndex(pc_bits, h);
        });
        break;
    }
    return n_correct;
}

void
TwoLevel::reset()
{
    std::fill(histories_.begin(), histories_.end(), 0);
    std::fill(pht_.begin(), pht_.end(), counterInit_);
}

std::string
TwoLevel::name() const
{
    return config_.label;
}

} // namespace copra::predictor
