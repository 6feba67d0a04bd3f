#include "predictor/interference_free.hpp"

#include "util/logging.hpp"

namespace copra::predictor {

IfGshare::IfGshare(unsigned history_bits)
    : historyBits_(history_bits), history_(history_bits)
{
    fatalIf(history_bits == 0 || history_bits > 32,
            "IF gshare history bits must be in 1..32");
    pht_.reserve(1 << 16);
}

bool
IfGshare::step(const trace::BranchRecord &br, bool taken) noexcept
{
    Counter2 &counter = pht_[keyOf(br.pc)];
    bool prediction = counter.taken();
    counter.update(taken);
    history_.push(taken);
    return prediction;
}

std::string
IfGshare::name() const
{
    return "IF-gshare(h=" + std::to_string(historyBits_) + ")";
}

IfPas::IfPas(unsigned history_bits)
    : historyBits_(history_bits),
      historyMask_((uint64_t(1) << history_bits) - 1)
{
    fatalIf(history_bits == 0 || history_bits > 32,
            "IF PAs history bits must be in 1..32");
    histories_.reserve(1 << 12);
    pht_.reserve(1 << 16);
}

bool
IfPas::step(const trace::BranchRecord &br, bool taken) noexcept
{
    BranchHistory &branch = histories_[br.pc];
    if (branch.table == 0)
        branch.table = static_cast<uint32_t>(histories_.size());
    Counter2 &counter = pht_[branch.history.key(branch.table)];
    bool prediction = counter.taken();
    counter.update(taken);
    branch.history.push(taken, historyMask_);
    return prediction;
}

std::string
IfPas::name() const
{
    return "IF-PAs(h=" + std::to_string(historyBits_) + ")";
}

} // namespace copra::predictor
