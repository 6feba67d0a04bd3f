/**
 * Corpus: range-for over an unordered accessor declared two includes
 * away. The rule must know the accessor through the include closure.
 */

#include "core/reach_mid.hpp"

namespace copra::core {

int
sumReached()
{
    int sum = 0;
    for (const auto &kv : reachBuckets()) {    // expect: unordered-iter
        sum += kv.second;
    }
    return sum;
}

} // namespace copra::core
