/**
 * @file
 * Weighted percentile curves used by the evaluation harnesses
 * (notably the gshare-vs-PAs percentile plot, paper Fig. 9).
 */

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace copra {

/**
 * Weighted sample set supporting percentile queries. Used to reproduce the
 * paper's percentile-of-dynamic-branches curves: each static branch
 * contributes its statistic weighted by execution frequency.
 */
class WeightedPercentiles
{
  public:
    /** Add a sample @p value carrying @p weight. */
    void add(double value, uint64_t weight);

    /** Total accumulated weight. */
    uint64_t totalWeight() const { return total_; }

    /**
     * Value at percentile @p p in [0, 100]: the smallest sample value v
     * such that at least p% of the weight lies at or below v. The sample
     * set must be non-empty.
     */
    double percentile(double p) const;

    /**
     * Evaluate percentiles 0..100 in steps of @p step and return the
     * resulting curve (percentile, value) pairs.
     */
    std::vector<std::pair<double, double>> curve(double step = 5.0) const;

  private:
    mutable std::vector<std::pair<double, uint64_t>> samples_;
    mutable bool sorted_ = false;
    uint64_t total_ = 0;

    void sort() const;
};

} // namespace copra

