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
IfGshare::predict(const trace::BranchRecord &br) noexcept
{
    auto it = pht_.find(keyOf(br.pc));
    return it == pht_.end() ? Counter2{}.taken() : it->second.taken();
}

void
IfGshare::update(const trace::BranchRecord &br, bool taken) noexcept
{
    pht_[keyOf(br.pc)].update(taken);
    history_.push(taken);
}

void
IfGshare::reset()
{
    history_.clear();
    pht_.clear();
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
IfPas::predict(const trace::BranchRecord &br) noexcept
{
    auto branch = histories_.find(br.pc);
    if (branch == histories_.end())
        return Counter2{}.taken();
    const BranchHistory &state = branch->second;
    auto it = pht_.find(state.history.key(state.table));
    return it == pht_.end() ? Counter2{}.taken() : it->second.taken();
}

void
IfPas::update(const trace::BranchRecord &br, bool taken) noexcept
{
    BranchHistory &branch = histories_[br.pc];
    if (branch.table == 0)
        branch.table = static_cast<uint32_t>(histories_.size());
    pht_[branch.history.key(branch.table)].update(taken);
    branch.history.push(taken, historyMask_);
}

void
IfPas::reset()
{
    histories_.clear();
    pht_.clear();
}

std::string
IfPas::name() const
{
    return "IF-PAs(h=" + std::to_string(historyBits_) + ")";
}

} // namespace copra::predictor
