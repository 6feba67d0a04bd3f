/**
 * Corpus: an intrinsic-type mention justified with allow(). The escape
 * hatch exists for talking *about* the vector ABI (an alias, a sizeof
 * probe) without writing vector code; the directive must silence the
 * rule, so this file contributes zero findings.
 */

namespace copra::sim {

// copra-lint: allow(banned-api) -- corpus: ABI alias only, no vector math
using ProbeVec = __m256i;

unsigned
vectorWidthBytes()
{
    return sizeof(ProbeVec);
}

} // namespace copra::sim
