#include "core/h2p.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "obs/instruments.hpp"

namespace copra::core {

double
H2pReport::staticFraction() const
{
    return staticBranches
        ? static_cast<double>(branches.size()) / staticBranches
        : 0.0;
}

double
H2pReport::mispredictFraction() const
{
    return totalMispredicts
        ? static_cast<double>(h2pMispredicts) / totalMispredicts
        : 0.0;
}

H2pReport
identifyH2p(const sim::Ledger &ledger, const H2pCriteria &criteria)
{
    H2pReport report;
    report.criteria = criteria;
    report.staticBranches = ledger.staticBranches();
    for (const auto &[pc, tally] : ledger.table()) {
        report.dynamicBranches += tally.execs;
        uint64_t mispredicts = tally.execs - tally.correct;
        report.totalMispredicts += mispredicts;
        if (tally.execs < criteria.minExecs)
            continue;
        if (tally.accuracy() >= criteria.accuracyThreshold)
            continue;
        report.branches.push_back(
            {pc, tally.execs, mispredicts, tally.accuracy()});
        report.h2pMispredicts += mispredicts;
    }
    // Rows arrive in pc order, so a stable sort breaks ties by pc.
    std::stable_sort(report.branches.begin(), report.branches.end(),
                     [](const H2pBranch &a, const H2pBranch &b) {
                         return a.mispredicts > b.mispredicts;
                     });
    obs::count(obs::ids().h2pCount, report.branches.size());
    return report;
}

double
MispredictCdf::fractionFromTopPercent(double percent) const
{
    if (points.empty() || totalMispredicts == 0)
        return 0.0;
    auto top = static_cast<size_t>(
        std::ceil(points.size() * percent / 100.0));
    if (top == 0)
        top = 1;
    if (top > points.size())
        top = points.size();
    return points[top - 1].cumulativeFraction;
}

uint64_t
MispredictCdf::branchesForFraction(double fraction) const
{
    if (totalMispredicts == 0)
        return 0;
    for (size_t i = 0; i < points.size(); ++i)
        if (points[i].cumulativeFraction >= fraction)
            return i + 1;
    return points.size();
}

MispredictCdf
mispredictCdf(const sim::Ledger &ledger)
{
    MispredictCdf cdf;
    cdf.points.reserve(ledger.staticBranches());
    for (const auto &[pc, tally] : ledger.table()) {
        uint64_t mispredicts = tally.execs - tally.correct;
        cdf.points.push_back({pc, mispredicts, 0.0});
        cdf.totalMispredicts += mispredicts;
    }
    std::stable_sort(cdf.points.begin(), cdf.points.end(),
                     [](const MispredictCdf::Point &a,
                        const MispredictCdf::Point &b) {
                         return a.mispredicts > b.mispredicts;
                     });
    uint64_t running = 0;
    for (MispredictCdf::Point &point : cdf.points) {
        running += point.mispredicts;
        point.cumulativeFraction = cdf.totalMispredicts
            ? static_cast<double>(running) / cdf.totalMispredicts
            : 0.0;
    }
    return cdf;
}

H2pStability
h2pStability(const std::vector<H2pReport> &reports)
{
    // A report names each pc at most once (it comes from ledger rows),
    // so a pc is in every report exactly when every report counts it.
    std::map<uint64_t, size_t> reportsNaming;
    for (const H2pReport &report : reports)
        for (const H2pBranch &branch : report.branches)
            ++reportsNaming[branch.pc];
    H2pStability out;
    out.unionSize = reportsNaming.size();
    for (const auto &[pc, n] : reportsNaming)
        if (n == reports.size())
            ++out.intersectionSize;
    out.jaccard = out.unionSize == 0
        ? 1.0
        : static_cast<double>(out.intersectionSize) / out.unionSize;
    return out;
}

} // namespace copra::core
