/**
 * Corpus: planted raw-SIMD code. Intrinsics and their headers are
 * banned everywhere (this file lints as src/sim/...), so every marked
 * line must fire banned-api.
 */

#include <immintrin.h> // expect: banned-api

namespace copra::sim {

int
vectorLeak(const int *a, const int *b)
{
    const __m256i *pa = (const __m256i *)a;  // expect: banned-api
    const __m256i *pb = (const __m256i *)b;  // expect: banned-api
    __m256i va = _mm256_loadu_si256(pa);     // expect: banned-api
    __m256i vb = _mm256_loadu_si256(pb);     // expect: banned-api
    __m256i sum = _mm256_add_epi32(va, vb);  // expect: banned-api
    return _mm256_extract_epi32(sum, 0);     // expect: banned-api
}

} // namespace copra::sim
