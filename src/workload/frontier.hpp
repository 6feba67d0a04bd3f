/**
 * @file
 * Frontier workload families: synthetic branch behaviours the paper's
 * eight SPECint95-like profiles never produce.
 *
 * The ISCA '98 taxonomy was derived from compiled C programs; modern
 * dissections (Firestorm/Oryon probing, PAPERS.md) show predictors are
 * stressed hardest by shapes outside that corpus. Three families close
 * the gap:
 *
 *  - "interp": an interpreter/VM dispatch loop. A small bytecode
 *    program is executed repeatedly; each instruction's indirect
 *    dispatch is lowered to the else-if compare chain a switch compiles
 *    to, so the dispatch target is encoded as a correlated run of
 *    conditional outcomes driven by the bytecode sequence — exactly the
 *    indirect-style correlation global history can capture and
 *    per-address history cannot.
 *
 *  - "datadep": branches over a generated value stream that alternates
 *    between sorted runs, random walks, and uncorrelated noise. The
 *    same static branches flip between trivially predictable and
 *    irreducibly random as the data regime changes — the data-dependent
 *    case the paper's §4 calls out as the limit of history correlation.
 *
 *  - "nestloop": nested loops with trip counts beyond any tracked
 *    history window and co-prime-period interactions, after the
 *    long-period probes of the Firestorm dissection: triangular nests,
 *    two counters with periods 48 and 37 (combined period 1776), and a
 *    period-127 pattern branch.
 *
 * Generators are pure functions of (branches, seed): byte-identical
 * traces for the same arguments, stopping at exactly the requested
 * conditional-branch budget. workload::makeBenchmarkTrace() dispatches
 * these names, so benches, the trace cache, and copra_characterize
 * treat frontier families exactly like the paper suite.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace copra::workload {

/** Names of the frontier families: interp, datadep, nestloop. */
const std::vector<std::string> &frontierNames();

/** True when @p name is one of frontierNames(). */
bool isFrontierWorkload(const std::string &name);

/**
 * The full workload suite: the paper's eight benchmarks followed by the
 * three frontier families. fig4–fig9 benches iterate this list; the
 * table benches stay on benchmarkNames() because only the paper eight
 * have published reference rows.
 */
const std::vector<std::string> &workloadSuiteNames();

/**
 * Generate a frontier-family trace with exactly @p branches conditional
 * branches (non-conditional transfers are interleaved on top).
 *
 * @param name One of frontierNames(); fatal() otherwise.
 * @param branches Dynamic conditional branches to emit.
 * @param seed Execution seed (0 = the family's canonical seed).
 */
trace::Trace makeFrontierTrace(const std::string &name, uint64_t branches,
                               uint64_t seed = 0);

} // namespace copra::workload
