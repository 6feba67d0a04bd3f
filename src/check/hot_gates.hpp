/**
 * @file
 * Runtime hot-path gates: the dynamic half of the hot-path discipline
 * (DESIGN.md §15).
 *
 * The copra_lint call-graph pass proves the *names* on the hot path
 * behave — no visible allocation, locking, throwing, or I/O in any
 * function reachable from a COPRA_HOT root. These gates prove the
 * *process* behaves: they replay fuzzed traces through every
 * factory-roster predictor by calling sim::runLoop itself — the loop
 * sim::run drives, ledger fold included — and after a warm-up pass
 * assert that a
 * steady-state replay moves neither the global allocation counter nor
 * the global lock counter. That catches what no token-level analysis
 * can see — allocations behind project-defined method names, container
 * growth hidden in a branch the lint over-approximation excused, or a
 * dependency locking internally.
 *
 * Probes:
 *  - allocation: the copra_check binary (and only that binary)
 *    replaces global operator new to bump a counter
 *    (check/alloc_probe.cc). Sanitizer builds keep the sanitizer's own
 *    allocator, so there the alloc gate reports itself skipped.
 *  - locks: util::Mutex::lock() bumps a relaxed process-wide counter
 *    (util::lockAcquisitionCount) in every build.
 *  - exceptions: a std::terminate handler is installed for the
 *    duration of the gates, so a throw escaping the (noexcept by lint
 *    decree) hot region dies with an attributable message instead of
 *    an anonymous abort.
 *
 * The planted InjectedBug::HotPathAlloc defect (differential.hpp)
 * allocates per batch while predicting identically — invisible to the
 * differential suite and outside the lint's jurisdiction — and the
 * `copra_check --inject hot-path-alloc` self-test requires these gates
 * to catch it.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/differential.hpp"
#include "check/gate_report.hpp"

namespace copra::check {

/** One roster entry the gates run over. */
struct RosterEntry
{
    std::string spec; //!< factory spec, e.g. "pas:h=6,bht=5,s=3"
    PredictorFactory make;
};

/**
 * The default gate roster: every knownPredictors() family at
 * deliberately small geometries, for the same reason defaultCheckPairs
 * shrinks its tables — aliasing, allocation, and eviction paths must
 * actually run or the gates have nothing interesting to see.
 */
std::vector<RosterEntry> defaultGateRoster();

/** Configuration of a hot-gate campaign. */
struct HotGateOptions
{
    uint64_t seedBase = 1200;     //!< first fuzz seed (inclusive)
    uint64_t traces = 3;          //!< fuzzed traces per roster entry
    uint64_t conditionals = 2000; //!< conditional branches per trace
    uint64_t steadyPasses = 2;    //!< measured replays after warm-up

    /**
     * Replays before measurement starts. Pass 1 fills first-touch
     * tables; pass 2 pins global-history-keyed instruments (their keys
     * depend on the history the pass *starts* with, identical from
     * pass 2 on). The remainder covers per-address history: a branch
     * occurring k times per pass advances its private register only k
     * bits per pass, so an interference-free per-address instrument
     * (pc, history)-keyed map keeps minting novel keys — and heap
     * nodes — for up to ceil(history_bits / k) passes before the
     * register reaches its per-pass fixed point. 16 covers every
     * roster geometry with margin (max per-address history is 6).
     */
    uint64_t warmupPasses = 16;
};

/**
 * Run the steady-state allocation and lock gates over @p roster (the
 * default gate roster, so every predictor family is covered at
 * allocation-prone small geometries). Failures name the spec, the
 * gate "hot-alloc" or "hot-lock", and the offending trace's seed; the
 * report's note says when the allocation probe is absent. Print with
 * formatGateReport("hot gates", report).
 */
GateReport runHotGates(const HotGateOptions &options,
                       const std::vector<RosterEntry> &roster
                       = defaultGateRoster());

/**
 * Allocation-probe plumbing. The counter and registration flag live in
 * the check library; the operator-new replacement that feeds them is a
 * dedicated TU linked only into the copra_check executable, so library
 * consumers never pay for (or fight over) the global allocator.
 */
void noteHotAlloc() noexcept;        //!< called by the replaced new
void registerAllocProbe() noexcept;  //!< called at alloc_probe.cc init
bool allocProbeLinked() noexcept;    //!< is the hook in this binary?
uint64_t hotAllocCount() noexcept;   //!< allocations since start

} // namespace copra::check
