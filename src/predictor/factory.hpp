/**
 * @file
 * String-spec predictor factory for CLI tools and examples.
 *
 * Spec grammar: `name` or `name:key=value,key=value`. Examples:
 *   "gshare", "gshare:h=14", "pas:h=10,bht=8,s=4", "bimodal:bits=10",
 *   "fixed:k=7", "hybrid:a=pas.h=10;bht=8,b=gshare" (an inner
 *   component spec spells ':' as '.' and ',' as ';' so it survives the
 *   outer parse).
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

