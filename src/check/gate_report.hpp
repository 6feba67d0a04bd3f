/**
 * @file
 * The outcome of a gate campaign: the state, hot-path and ingestion
 * gates (state_gates.hpp, hot_gates.hpp, ingest_gates.hpp) all report
 * failures and counts in this one shape and print through one
 * formatter.
 */

#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace copra::check {

/** One gate violation. */
struct GateFailure
{
    std::string subject; //!< roster spec, or empty for the ingest gates
    std::string gate;    //!< the violated gate, e.g. "round-trip"
    uint64_t seed = 0;   //!< fuzz seed (0 for deterministic gates)
    std::string detail;
};

/** Aggregate outcome of a campaign. */
struct GateReport
{
    uint64_t gatesRun = 0; //!< individual checks performed
    std::string note;      //!< printed after the counts when non-empty
    std::vector<GateFailure> failures;
    bool ok() const { return failures.empty(); }
};

/** "<title>: N checks, F failure(s)", then one line per failure. */
inline std::string
formatGateReport(const std::string &title, const GateReport &report)
{
    std::ostringstream os;
    os << title << ": " << report.gatesRun << " checks, "
       << report.failures.size() << " failure(s)";
    if (!report.note.empty())
        os << " [" << report.note << "]";
    os << "\n";
    for (const GateFailure &f : report.failures) {
        os << "  FAIL ";
        if (!f.subject.empty())
            os << f.subject << " ";
        os << "[" << f.gate << "]";
        if (f.seed != 0)
            os << " seed=" << f.seed;
        os << ": " << f.detail << "\n";
    }
    return os.str();
}

} // namespace copra::check
