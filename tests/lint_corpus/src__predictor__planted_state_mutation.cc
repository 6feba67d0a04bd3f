/**
 * Corpus: the cross-TU half of planted_state_mutation.hpp. Out-of-line
 * step() bodies: PlantedBare has no state contract, so mutating any
 * member fires state-mutation here, not in the header; PlantedStepConfig
 * is contracted, and only its write to the config-listed mask_ fires.
 */

namespace copra::predictor {

bool
PlantedBare::step(const trace::BranchRecord &br, bool taken)
{
    bool prediction = hits_ > 0;
    ++hits_;                                     // expect: state-mutation
    return prediction;
}

bool
PlantedStepConfig::step(const trace::BranchRecord &br, bool taken)
{
    bool prediction = counter_ > 0;
    counter_ += taken ? 1 : -1;
    mask_ = (mask_ << 1) | 1;                    // expect: state-mutation
    return prediction;
}

} // namespace copra::predictor
