#include "sim/ledger.hpp"

#include <limits>
#include <utility>

#include "util/logging.hpp"

namespace copra::sim {

uint64_t
Ledger::dynamic() const
{
    uint64_t total = 0;
    for (const auto &[pc, tally] : rows_)
        total += tally.execs;
    return total;
}

uint64_t
Ledger::correct() const
{
    uint64_t total = 0;
    for (const auto &[pc, tally] : rows_)
        total += tally.correct;
    return total;
}

double
Ledger::accuracyPercent() const
{
    uint64_t total = dynamic();
    if (total == 0)
        return std::numeric_limits<double>::quiet_NaN();
    return 100.0 * static_cast<double>(correct())
        / static_cast<double>(total);
}

BranchTally
Ledger::branch(uint64_t pc) const
{
    const BranchTally *tally = findRow(rows_, pc);
    return tally ? *tally : BranchTally{};
}

Ledger
bestPerBranchLedger(const std::vector<const Ledger *> &ledgers)
{
    fatalIf(ledgers.empty(), "bestPerBranchLedger needs >= 1 ledger");
    PcRows<BranchTally> rows = ledgers.front()->table();
    for (size_t l = 1; l < ledgers.size(); ++l) {
        const PcRows<BranchTally> &other = ledgers[l]->table();
        requireAligned(rows, other,
                       "bestPerBranchLedger: ledgers cover different traces");
        for (size_t i = 0; i < rows.size(); ++i)
            if (other[i].second.correct > rows[i].second.correct)
                rows[i].second = other[i].second;
    }
    return Ledger(std::move(rows));
}

double
bestOfAccuracyPercent(const Ledger &a, const Ledger &b)
{
    return bestPerBranchLedger({&a, &b}).accuracyPercent();
}

} // namespace copra::sim
