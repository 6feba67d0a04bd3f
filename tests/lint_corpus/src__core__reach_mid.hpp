#pragma once

/**
 * Corpus: the intermediate header of the chain. It only forwards
 * core/reach_leaf.hpp, so an includer sees that header's declarations
 * through its include closure, never through a direct include.
 */

#include "core/reach_leaf.hpp"
