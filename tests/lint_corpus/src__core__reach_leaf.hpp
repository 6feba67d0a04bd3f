#pragma once

/**
 * Corpus: the far end of a two-header include chain. It declares an
 * accessor returning an unordered container; nothing here iterates it.
 */

#include <unordered_map>

namespace copra::core {

std::unordered_map<int, int> &reachBuckets();

} // namespace copra::core
