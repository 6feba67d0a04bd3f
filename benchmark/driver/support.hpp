/**
 * @file
 * Small helpers shared by the copra_bench driver: the result digest,
 * order statistics, process resource readings and the host calibration
 * loop.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace copra::bench {

/**
 * 64-bit FNV-1a digest of simulated results. Doubles are folded in at 6
 * significant digits, so a digest pins every printed statistic without
 * depending on the last bits of a floating-point sum.
 */
class Digest
{
  public:
    void
    bytes(const void *data, size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= 0x100000001b3ull;
        }
    }

    void u64(uint64_t v) { bytes(&v, sizeof v); }
    void str(const std::string &s) { bytes(s.data(), s.size()); u64(s.size()); }
    void real(double v);

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Hex rendering of a digest (16 lowercase digits). */
std::string hex(uint64_t v);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/**
 * First and third quartile, computed exactly as Python's
 * statistics.quantiles(v, n=4) does (the "exclusive" method), so the
 * spreads printed here match the ones an outside checker computes.
 */
struct Quartiles
{
    double q1 = 0.0;
    double q2 = 0.0;
    double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> v);

/** User + system CPU seconds of the whole process (all threads). */
double processCpuSeconds();

/** Peak resident set size of the process so far, in MB. */
double peakRssMb();

/**
 * Seconds taken by a fixed, copra-independent calibration loop: a
 * pointer chase through a 64 MB permutation plus an integer hash loop,
 * median of three repetitions. Timed before and after a run, the ratio
 * shows how much the host itself sped up or slowed down meanwhile.
 */
double calibrationSeconds();

} // namespace copra::bench
