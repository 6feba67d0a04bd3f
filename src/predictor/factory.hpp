/**
 * @file
 * String-spec predictor factory for CLI tools and examples.
 *
 * Spec grammar: `name` or `name:key=uint,key=uint`. Examples:
 *   "gshare", "gshare:h=14", "pas:h=10,bht=8,s=4", "bimodal:bits=10".
 */

#pragma once

#include <string>
#include <vector>

#include "predictor/predictor.hpp"

namespace copra::predictor {

/**
 * Create a predictor from a spec string. Calls fatal(), naming the
 * spec, on an unknown predictor name, a malformed parameter, a key the
 * named predictor does not read, or a numeric value that is not a whole
 * unsigned decimal no larger than UINT_MAX.
 */
PredictorPtr makePredictor(const std::string &spec);

/** Names accepted by makePredictor (for --help output). */
std::vector<std::string> knownPredictors();

} // namespace copra::predictor

