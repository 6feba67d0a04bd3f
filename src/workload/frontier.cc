#include "workload/frontier.hpp"

#include <algorithm>
#include <cstddef>

#include "util/logging.hpp"
#include "util/rng.hpp"
#include "workload/profiles.hpp"

namespace copra::workload {

using trace::BranchKind;
using trace::Trace;

namespace {

/**
 * Conditional-budget emitter: cond() spends one unit of the budget and
 * refuses once it is exhausted, so every generator stops at exactly the
 * requested count no matter where its control flow stands; other()
 * interleaves non-conditional transfers only while budget remains, so
 * traces never end in a tail of unconditional records.
 */
struct Emitter
{
    Trace &out;
    uint64_t budget;

    bool done() const { return budget == 0; }

    bool
    cond(uint64_t pc, uint64_t target, bool taken)
    {
        if (budget == 0)
            return false;
        --budget;
        out.append({pc, target, BranchKind::Conditional, taken});
        return true;
    }

    void
    other(uint64_t pc, uint64_t target, BranchKind kind)
    {
        if (budget > 0)
            out.append({pc, target, kind, true});
    }
};

// ---------------------------------------------------------------------
// interp: VM-dispatch loop lowered to correlated compare chains.
// ---------------------------------------------------------------------

constexpr unsigned kInterpOpcodes = 12;
constexpr unsigned kInterpProgramLen = 96;
constexpr uint64_t kInterpDispatchPc = 0x10000;
constexpr uint64_t kInterpHandlerBase = 0x20000;

/** One bytecode instruction of the synthetic VM. */
struct InterpOp
{
    uint8_t opcode = 0;
    uint8_t operand = 0; //!< drives handler-local loops and biases
};

/**
 * Draw a bytecode program with first-order Markov structure: each
 * opcode has a preferred successor (followed ~70% of the time), so the
 * dispatch-chain outcome sequence carries exactly the kind of
 * cross-branch correlation a global-history predictor keys on.
 */
std::vector<InterpOp>
drawInterpProgram(Rng &rng)
{
    uint8_t successor[kInterpOpcodes];
    for (unsigned i = 0; i < kInterpOpcodes; ++i)
        successor[i] = static_cast<uint8_t>(rng.index(kInterpOpcodes));
    std::vector<InterpOp> program(kInterpProgramLen);
    uint8_t prev = static_cast<uint8_t>(rng.index(kInterpOpcodes));
    for (InterpOp &op : program) {
        op.opcode = rng.bernoulli(0.7)
            ? successor[prev]
            : static_cast<uint8_t>(rng.index(kInterpOpcodes));
        op.operand = static_cast<uint8_t>(rng.index(256));
        prev = op.opcode;
    }
    return program;
}

void
generateInterp(Emitter &emit, Rng &rng)
{
    // Per-opcode handler shape, fixed for the whole trace: how many
    // guard conditionals the handler runs and how biased they are.
    double handler_bias[kInterpOpcodes];
    unsigned handler_guards[kInterpOpcodes];
    for (unsigned i = 0; i < kInterpOpcodes; ++i) {
        handler_bias[i] = 0.1 + 0.8 * rng.uniform();
        handler_guards[i] = 1 + static_cast<unsigned>(rng.index(3));
    }

    std::vector<InterpOp> program = drawInterpProgram(rng);
    // Phase changes: the interpreted program is re-drawn every
    // phase_len outer iterations (a new "script" arrives), so the
    // correlation structure shifts mid-trace.
    uint64_t phase_len = 160 + rng.index(160);
    uint64_t iteration = 0;

    while (!emit.done()) {
        if (iteration > 0 && iteration % phase_len == 0)
            program = drawInterpProgram(rng);
        ++iteration;
        for (const InterpOp &op : program) {
            if (emit.done())
                return;
            // Dispatch: the switch lowered to an else-if chain. Test j
            // executes only when tests 0..j-1 fell through, and is
            // taken exactly when op.opcode == j.
            for (unsigned j = 0; j <= op.opcode; ++j) {
                if (!emit.cond(kInterpDispatchPc + j * 8,
                               kInterpHandlerBase + j * 0x100,
                               j == op.opcode))
                    return;
            }
            // Handler body: guards with the opcode's fixed bias, then
            // an operand-driven micro loop (trip 1..4) for "loopy"
            // opcodes.
            uint64_t hpc = kInterpHandlerBase + uint64_t(op.opcode) * 0x100;
            for (unsigned g = 0; g < handler_guards[op.opcode]; ++g)
                emit.cond(hpc + 8 + g * 8, hpc + 0x80,
                          rng.bernoulli(handler_bias[op.opcode]));
            if (op.opcode % 4 == 0) {
                uint32_t trip = 1 + (op.operand & 3);
                for (uint32_t t = 0; t < trip; ++t)
                    emit.cond(hpc + 0x40, hpc + 0x40 - 16, t + 1 < trip);
            }
            // Back to the top of the dispatch loop.
            emit.other(hpc + 0x78, kInterpDispatchPc, BranchKind::Jump);
        }
    }
}

// ---------------------------------------------------------------------
// datadep: branches over a generated value stream.
// ---------------------------------------------------------------------

constexpr uint64_t kDatadepBodyPc = 0x30000;
constexpr uint64_t kDatadepCallPc = 0x38000;

void
generateDatadep(Emitter &emit, Rng &rng)
{
    constexpr int64_t kPivot = 128;
    int64_t prev = 0;
    while (!emit.done()) {
        // Each segment is one data regime: 0 = sorted ascending run,
        // 1 = bounded random walk, 2 = uncorrelated noise.
        unsigned regime = static_cast<unsigned>(rng.index(3));
        uint64_t len = 64 + rng.index(193); // 64..256 elements
        int64_t value = static_cast<int64_t>(rng.index(256));
        int64_t step = 1 + static_cast<int64_t>(rng.index(3));
        // process_segment() call: a batch boundary before the loop.
        emit.other(kDatadepCallPc, kDatadepCallPc + 0x100, BranchKind::Call);
        for (uint64_t i = 0; i < len && !emit.done(); ++i) {
            switch (regime) {
              case 0: // sorted: monotone with occasional flat spots
                value += rng.bernoulli(0.9) ? step : 0;
                break;
              case 1: // random walk: small signed increments
                value += static_cast<int64_t>(rng.index(17)) - 8;
                break;
              default: // noise: fresh uniform draw
                value = static_cast<int64_t>(rng.index(256));
                break;
            }
            // The four data-dependent tests of the loop body. Their
            // predictability tracks the regime, not the branch.
            emit.cond(kDatadepBodyPc + 0x00, kDatadepBodyPc + 0x40,
                      value < kPivot);
            emit.cond(kDatadepBodyPc + 0x08, kDatadepBodyPc + 0x48,
                      value >= prev);
            emit.cond(kDatadepBodyPc + 0x10, kDatadepBodyPc + 0x50,
                      (value & 1) != 0);
            emit.cond(kDatadepBodyPc + 0x18, kDatadepBodyPc + 0x58,
                      value == 0);
            prev = value;
            // Loop-closing conditional: backward taken until the
            // segment's last element.
            emit.cond(kDatadepBodyPc + 0x20, kDatadepBodyPc - 0x20,
                      i + 1 < len);
        }
        emit.other(kDatadepCallPc + 0x1f8, kDatadepCallPc + 8,
                   BranchKind::Return);
    }
}

// ---------------------------------------------------------------------
// nestloop: long-period nested-loop shapes.
// ---------------------------------------------------------------------

constexpr uint64_t kNestTriPc = 0x40000;
constexpr uint64_t kNestCoprimePc = 0x41000;
constexpr uint64_t kNestPeriodPc = 0x42000;

/** Triangular nest: inner trip grows with the outer index, through and
 * beyond any 16-bit history window. */
void
triangularNest(Emitter &emit, Rng &rng)
{
    constexpr uint32_t kOuterTrip = 24;
    for (uint32_t o = 0; o < kOuterTrip && !emit.done(); ++o) {
        uint32_t inner_trip = o + 2; // grows 2..25
        for (uint32_t i = 0; i < inner_trip; ++i) {
            // First-iteration test and the diagonal test: both are
            // functions of loop indices, not data.
            emit.cond(kNestTriPc + 0x10, kNestTriPc + 0x60, i == 0);
            emit.cond(kNestTriPc + 0x18, kNestTriPc + 0x68, i == o);
            // Inner loop-closing branch, backward taken.
            emit.cond(kNestTriPc + 0x20, kNestTriPc + 0x10, i + 1 < inner_trip);
        }
        // Outer loop-closing branch.
        emit.cond(kNestTriPc + 0x28, kNestTriPc + 0x08, o + 1 < kOuterTrip);
    }
    (void)rng;
    emit.other(kNestTriPc + 0x30, kNestTriPc, BranchKind::Jump);
}

/** Two counters with co-prime periods 48 and 37: the xor branch repeats
 * only every lcm(48, 37) = 1776 iterations. */
void
coprimeCounters(Emitter &emit, uint64_t &tick, uint64_t iterations)
{
    for (uint64_t i = 0; i < iterations && !emit.done(); ++i, ++tick) {
        bool a = tick % 48 < 24;
        bool b = tick % 37 < 18;
        emit.cond(kNestCoprimePc + 0x00, kNestCoprimePc + 0x40, a);
        emit.cond(kNestCoprimePc + 0x08, kNestCoprimePc + 0x48, b);
        emit.cond(kNestCoprimePc + 0x10, kNestCoprimePc + 0x50, a != b);
    }
}

/** Period-127 pattern branch: 96 taken then 31 not-taken, a run length
 * past every loop-count saturation point in the roster. */
void
longPeriodPattern(Emitter &emit, uint64_t &tick, uint64_t iterations)
{
    for (uint64_t i = 0; i < iterations && !emit.done(); ++i, ++tick)
        emit.cond(kNestPeriodPc, kNestPeriodPc - 0x80, tick % 127 < 96);
}

void
generateNestloop(Emitter &emit, Rng &rng)
{
    uint64_t coprime_tick = 0;
    uint64_t period_tick = 0;
    while (!emit.done()) {
        // Interleave the three sub-shapes in seed-chosen chunks so no
        // single periodicity dominates the global history.
        switch (rng.index(3)) {
          case 0:
            triangularNest(emit, rng);
            break;
          case 1:
            coprimeCounters(emit, coprime_tick, 100 + rng.index(300));
            break;
          default:
            longPeriodPattern(emit, period_tick, 100 + rng.index(300));
            break;
        }
    }
}

/** Canonical execution seed per family (the seed == 0 default),
 * mirroring the profiles' buildSeed * 77 + 13 convention. */
uint64_t
canonicalSeed(const std::string &name)
{
    if (name == "interp")
        return 0x171 * 77 + 13;
    if (name == "datadep")
        return 0xDA7 * 77 + 13;
    return 0x135 * 77 + 13; // nestloop
}

} // namespace

const std::vector<std::string> &
frontierNames()
{
    static const std::vector<std::string> names = {
        "interp", "datadep", "nestloop",
    };
    return names;
}

bool
isFrontierWorkload(const std::string &name)
{
    const auto &names = frontierNames();
    return std::find(names.begin(), names.end(), name) != names.end();
}

const std::vector<std::string> &
workloadSuiteNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> all = benchmarkNames();
        const auto &frontier = frontierNames();
        all.insert(all.end(), frontier.begin(), frontier.end());
        return all;
    }();
    return names;
}

trace::Trace
makeFrontierTrace(const std::string &name, uint64_t branches, uint64_t seed)
{
    uint64_t exec_seed = seed ? seed : canonicalSeed(name);
    Rng rng(mix64(exec_seed ^ 0xf07f1e5ull));
    Trace out(name, exec_seed);
    out.reserve(branches + branches / 16);
    Emitter emit{out, branches};
    if (name == "interp")
        generateInterp(emit, rng);
    else if (name == "datadep")
        generateDatadep(emit, rng);
    else if (name == "nestloop")
        generateNestloop(emit, rng);
    else
        fatal("unknown frontier workload '" + name + "'");
    return out;
}

} // namespace copra::workload
