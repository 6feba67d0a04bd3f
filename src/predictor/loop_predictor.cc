#include "predictor/loop_predictor.hpp"

namespace copra::predictor {

LoopState
LoopPredictor::state(uint64_t pc) const
{
    const LoopState *st = table_.find(pc);
    return st ? *st : LoopState{};
}

void
LoopState::update(bool taken) noexcept
{
    if (!seen) {
        seen = true;
        dir = taken;
        run = 1;
        trip = 255;
        return;
    }
    if (taken == dir) {
        if (run < 255)
            ++run;
    } else {
        if (run == 0) {
            // Two consecutive opposite outcomes: the roles are inverted
            // (e.g. a for-type loop whose body direction we guessed
            // wrong, or a while-type branch). Flip the body direction.
            dir = taken;
            run = 1;
            trip = 255;
        } else {
            // The run ended: remember its length as the trip count.
            trip = run;
            run = 0;
        }
    }
}

bool
LoopPredictor::predict(const trace::BranchRecord &br) noexcept
{
    const LoopState *st = table_.find(br.pc);
    return st == nullptr || st->predict(); // absent: cold, taken
}

void
LoopPredictor::update(const trace::BranchRecord &br, bool taken) noexcept
{
    table_.access(br.pc).update(taken);
}

void
LoopPredictor::reset()
{
    table_.clear();
}

std::string
LoopPredictor::name() const
{
    if (table_.config().isPerfect())
        return "loop";
    return "loop(btb=" + table_.config().describe() + ")";
}

} // namespace copra::predictor
