#include "support.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

namespace copra::bench {

namespace {

// A volatile store keeps the calibration loops observable, so neither
// can be optimized away.
volatile uint64_t g_calibrationSink = 0;

} // namespace

void
Digest::real(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    str(buf);
}

std::string
hex(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Quartiles
quartiles(std::vector<double> v)
{
    Quartiles q;
    if (v.empty())
        return q;
    std::sort(v.begin(), v.end());
    const long ld = static_cast<long>(v.size());
    if (ld == 1) {
        q.q1 = q.q2 = q.q3 = v[0];
        return q;
    }
    const long m = ld + 1;
    double out[3];
    for (long i = 1; i <= 3; ++i) {
        long j = std::clamp(i * m / 4, 1L, ld - 1);
        long delta = i * m - j * 4;
        out[i - 1] = (v[static_cast<size_t>(j - 1)] *
                          static_cast<double>(4 - delta) +
                      v[static_cast<size_t>(j)] *
                          static_cast<double>(delta)) /
            4.0;
    }
    q.q1 = out[0];
    q.q2 = out[1];
    q.q3 = out[2];
    return q;
}

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
            static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

double
calibrationSeconds()
{
    // A full-period LCG order over 2^23 slots (64 MB of uint64): each
    // load's address depends on the previous load, and no stride
    // prefetcher can follow the sequence, so the chase measures memory
    // latency the way the simulators' table lookups feel it.
    constexpr uint64_t kSlots = uint64_t(1) << 23;
    constexpr uint64_t kSteps = 1u << 19;
    constexpr uint64_t kHashRounds = 16u << 20;
    auto next = std::make_unique<uint64_t[]>(kSlots);
    for (uint64_t i = 0; i < kSlots; ++i)
        next[i] = (i * 6364136223846793005ull + 1442695040888963407ull) &
            (kSlots - 1);

    std::vector<double> reps;
    for (int rep = 0; rep < 3; ++rep) {
        auto start = std::chrono::steady_clock::now();
        uint64_t at = static_cast<uint64_t>(rep);
        for (uint64_t s = 0; s < kSteps; ++s)
            at = next[at];
        uint64_t h = at;
        for (uint64_t i = 0; i < kHashRounds; ++i) {
            h ^= h >> 29;
            h *= 0xbf58476d1ce4e5b9ull;
        }
        g_calibrationSink = h;
        reps.push_back(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count());
    }
    return median(reps);
}

} // namespace copra::bench
