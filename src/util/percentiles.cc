#include "util/percentiles.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace copra {

void
WeightedPercentiles::add(double value, uint64_t weight)
{
    if (weight == 0)
        return;
    samples_.emplace_back(value, weight);
    total_ += weight;
    sorted_ = false;
}

void
WeightedPercentiles::sort() const
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        sorted_ = true;
    }
}

double
WeightedPercentiles::percentile(double p) const
{
    panicIf(samples_.empty(), "percentile() on empty sample set");
    sort();
    double target = std::clamp(p, 0.0, 100.0) / 100.0
        * static_cast<double>(total_);
    uint64_t seen = 0;
    for (const auto &[value, weight] : samples_) {
        seen += weight;
        if (static_cast<double>(seen) >= target)
            return value;
    }
    return samples_.back().first;
}

std::vector<std::pair<double, double>>
WeightedPercentiles::curve(double step) const
{
    std::vector<std::pair<double, double>> out;
    for (double p = 0.0; p <= 100.0 + 1e-9; p += step)
        out.emplace_back(p, percentile(p));
    return out;
}

} // namespace copra
