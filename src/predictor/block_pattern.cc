#include "predictor/block_pattern.hpp"

namespace copra::predictor {

BlockState
BlockPatternPredictor::state(uint64_t pc) const
{
    const BlockState *st = table_.find(pc);
    return st ? *st : BlockState{};
}

bool
BlockState::step(bool taken) noexcept
{
    if (!seen) {
        seen = true;
        curDir = taken;
        curRun = 1;
        return true;
    }
    bool prediction =
        curRun < lastRun[curDir ? 1 : 0] ? curDir : !curDir;
    if (taken == curDir) {
        if (curRun < 255)
            ++curRun;
    } else {
        lastRun[curDir ? 1 : 0] = curRun;
        curDir = taken;
        curRun = 1;
    }
    return prediction;
}

bool
BlockPatternPredictor::step(const trace::BranchRecord &br,
                            bool taken) noexcept
{
    return table_.access(br.pc).step(taken); // absent: cold, taken
}

std::string
BlockPatternPredictor::name() const
{
    if (table_.config().isPerfect())
        return "block-pattern";
    return "block-pattern(btb=" + table_.config().describe() + ")";
}

} // namespace copra::predictor
