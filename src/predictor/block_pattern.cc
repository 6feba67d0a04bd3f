#include "predictor/block_pattern.hpp"

namespace copra::predictor {

BlockState
BlockPatternPredictor::state(uint64_t pc) const
{
    const BlockState *st = table_.find(pc);
    return st ? *st : BlockState{};
}

void
BlockState::update(bool taken) noexcept
{
    if (!seen) {
        seen = true;
        curDir = taken;
        curRun = 1;
        return;
    }
    if (taken == curDir) {
        if (curRun < 255)
            ++curRun;
    } else {
        lastRun[curDir ? 1 : 0] = curRun;
        curDir = taken;
        curRun = 1;
    }
}

bool
BlockPatternPredictor::predict(const trace::BranchRecord &br) noexcept
{
    const BlockState *st = table_.find(br.pc);
    return st == nullptr || st->predict(); // absent: cold, taken
}

void
BlockPatternPredictor::update(const trace::BranchRecord &br,
                              bool taken) noexcept
{
    table_.access(br.pc).update(taken);
}

void
BlockPatternPredictor::reset()
{
    table_.clear();
}

std::string
BlockPatternPredictor::name() const
{
    if (table_.config().isPerfect())
        return "block-pattern";
    return "block-pattern(btb=" + table_.config().describe() + ")";
}

} // namespace copra::predictor
