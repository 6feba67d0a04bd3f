/**
 * @file
 * The eight SPECint95-like synthetic benchmarks and the paper's published
 * reference numbers.
 *
 * SPECint95 binaries and inputs are not redistributable, so each benchmark
 * is a BenchmarkProfile calibrated to reproduce the *behavioural*
 * fingerprint the paper reports for that program: static branch count
 * scale, bias distribution, correlation density, and loopiness. See
 * DESIGN.md §2 for the substitution rationale.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hpp"
#include "workload/builder.hpp"

namespace copra::workload {

/** Names of the eight synthetic benchmarks, in the paper's order. */
const std::vector<std::string> &benchmarkNames();

/**
 * Profile for one of the eight named benchmarks.
 * Calls fatal() for unknown names.
 */
BenchmarkProfile benchmarkProfile(const std::string &name);

/**
 * Build and execute the named benchmark. Frontier family names
 * (workload/frontier.hpp) are dispatched to makeFrontierTrace, so any
 * suite member can be produced through this one entry point.
 *
 * @param name One of benchmarkNames() or frontierNames().
 * @param branches Number of dynamic conditional branches to emit.
 * @param seed Execution seed (default: the profile's canonical seed).
 */
trace::Trace makeBenchmarkTrace(const std::string &name, uint64_t branches,
                                uint64_t seed = 0);

/** Reference accuracies published in the paper, for bench output. */
struct PaperReference
{
    std::string name;
    uint64_t paperDynamicBranches; //!< Table 1
    double gshare;                 //!< Table 2
    double gshareWithCorr;         //!< Table 2
    double ifGshare;               //!< Table 2
    double ifGshareWithCorr;       //!< Table 2
    double pas;                    //!< Table 3
    double pasWithLoop;            //!< Table 3
    double ifPas;                  //!< Table 3
    double ifPasWithLoop;          //!< Table 3
};

/** Paper reference row for a benchmark; fatal() for unknown names. */
const PaperReference &paperReference(const std::string &name);

} // namespace copra::workload

