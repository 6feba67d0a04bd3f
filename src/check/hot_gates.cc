/**
 * @file
 * Implementation of the runtime hot-path gates (hot_gates.hpp). See
 * DESIGN.md §15 for the static/dynamic division of labor.
 */

#include "check/hot_gates.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>

#include "check/fuzz.hpp"
#include "predictor/factory.hpp"
#include "sim/driver.hpp"
#include "trace/trace.hpp"
#include "util/sync.hpp"

namespace copra::check {

namespace {

// copra-lint: sanctioned-global(hot-gate allocation tally, fed by the copra_check binary's operator-new hook)
std::atomic<uint64_t> g_hotAllocs{0};
// copra-lint: sanctioned-global(records whether the operator-new hook TU is linked into this binary)
std::atomic<bool> g_allocProbeLinked{false};

/**
 * A terminate handler that names the contract being enforced: the lint
 * pass forces every hot function to be noexcept, so an exception on
 * the hot path lands here rather than unwinding into silent
 * mispredictions.
 */
[[noreturn]] void
hotGateTerminate()
{
    std::fputs("copra_check --hot-gates: std::terminate reached — an "
               "exception escaped the noexcept hot region "
               "(DESIGN.md §15)\n",
               stderr);
    std::abort();
}

/** RAII terminate-handler swap for the duration of the gates. */
class TerminateGuard
{
  public:
    TerminateGuard() : prev_(std::set_terminate(&hotGateTerminate)) {}
    ~TerminateGuard() { std::set_terminate(prev_); }
    TerminateGuard(const TerminateGuard &) = delete;
    TerminateGuard &operator=(const TerminateGuard &) = delete;

  private:
    std::terminate_handler prev_;
};

} // namespace

void
noteHotAlloc() noexcept
{
    g_hotAllocs.fetch_add(1, std::memory_order_relaxed);
}

void
registerAllocProbe() noexcept
{
    g_allocProbeLinked.store(true, std::memory_order_relaxed);
}

bool
allocProbeLinked() noexcept
{
    return g_allocProbeLinked.load(std::memory_order_relaxed);
}

uint64_t
hotAllocCount() noexcept
{
    return g_hotAllocs.load(std::memory_order_relaxed);
}

std::vector<RosterEntry>
defaultGateRoster()
{
    // Small geometries for the same reason defaultCheckPairs uses
    // them: tiny tables force the aliasing, allocation, and eviction
    // paths where a steady-state replay could still allocate.
    std::vector<std::string> specs = {
        "taken",
        "nottaken",
        "btfnt",
        "bimodal:bits=6",
        "gshare:h=7",
        "gag:h=7",
        "gas:h=6,s=3",
        "pas:h=6,bht=5,s=3",
        "pag:h=6,bht=5",
        "ifgshare:h=7",
        "ifpas:h=6",
        "loop",
        "block",
        "tage:base=6,tbits=5,tag=7,tables=4,hmin=3,hmax=20",
        "perceptron:tbits=6,tables=4,seg=6",
        "tournament:gh=7,lh=6,bht=5,s=3,chooser=6,btbsets=4,btbways=2,"
        "ras=4",
    };
    std::vector<RosterEntry> roster;
    roster.reserve(specs.size());
    for (const std::string &spec : specs)
        roster.push_back(
            {spec, [spec] { return predictor::makePredictor(spec); }});
    return roster;
}

GateReport
runHotGates(const HotGateOptions &options,
            const std::vector<RosterEntry> &roster)
{
    GateReport report;
    const bool alloc_probe = allocProbeLinked();
    if (!alloc_probe)
        report.note = "alloc probe absent: sanitizer build owns the "
                      "allocator, only the lock gate ran";
    TerminateGuard terminate_guard;

    for (const RosterEntry &entry : roster) {
        for (uint64_t seed = options.seedBase;
             seed < options.seedBase + options.traces; ++seed) {
            trace::Trace trace = fuzzTrace(seed, options.conditionals);
            const trace::SoABlocks &soa = trace.soa();
            // The ledger buffers sim::run hands runLoop, caller-owned
            // here too, so the ledger fold is under the gate as well.
            std::vector<uint8_t> correct(sim::maxSegmentCount(soa));
            std::vector<uint64_t> packed(soa.staticCount(), 0);
            std::vector<sim::BranchTally> tallies(soa.staticCount());
            auto replay = [&](predictor::Predictor &pred) {
                sim::runLoop(soa, pred, correct.data(), packed.data(),
                             tallies.data());
            };

            // Warm-up: first-touch table fills, then history-keyed
            // instrument pinning — including per-address history
            // registers of rare branches, which converge only after
            // ceil(history_bits / occurrences-per-pass) passes (see
            // HotGateOptions::warmupPasses).
            predictor::PredictorPtr pred = entry.make();
            for (uint64_t pass = 0; pass < options.warmupPasses;
                 ++pass)
                replay(*pred);

            for (uint64_t pass = 0; pass < options.steadyPasses;
                 ++pass) {
                uint64_t allocs_before = hotAllocCount();
                uint64_t locks_before = util::lockAcquisitionCount();
                replay(*pred);
                uint64_t alloc_delta =
                    hotAllocCount() - allocs_before;
                uint64_t lock_delta =
                    util::lockAcquisitionCount() - locks_before;

                if (alloc_probe) {
                    ++report.gatesRun;
                    if (alloc_delta != 0) {
                        report.failures.push_back(
                            {entry.spec, "hot-alloc", seed,
                             std::to_string(alloc_delta) +
                                 " heap allocation(s) in a "
                                 "steady-state replay of " +
                                 std::to_string(options.conditionals) +
                                 " conditionals"});
                    }
                }
                ++report.gatesRun;
                if (lock_delta != 0) {
                    report.failures.push_back(
                        {entry.spec, "hot-lock", seed,
                         std::to_string(lock_delta) +
                             " lock acquisition(s) in a steady-state "
                             "replay of " +
                             std::to_string(options.conditionals) +
                             " conditionals"});
                }
            }
        }
    }
    return report;
}

} // namespace copra::check
