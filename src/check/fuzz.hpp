/**
 * @file
 * Deterministic adversarial trace fuzzer for the differential
 * verification subsystem.
 *
 * fuzzTrace(seed, n) produces a branch stream built from a seed-chosen
 * mix of adversarial shapes: degenerate PCs (zero, unaligned, near the
 * top of the address space, or a single hammered address), alias-heavy
 * address sets that collide in small prediction tables, pathological
 * loop trip counts straddling the 255-saturation boundary, correlation
 * chains whose outcomes are functions of recent history, interleaved
 * non-conditional control transfers (exercising observe() and the
 * driver's batch-boundary logic), and plain random soup. The same seed
 * always yields byte-identical records, so every failure is a
 * one-integer reproducer.
 *
 * corruptBytes() is the companion byte-level mutator for serialized
 * traces: it applies a seed-chosen corruption (truncation, bit flip,
 * magic/version smash, kind poisoning, record-count inflation, or one
 * of the re-sealed forgeries of forgeImage()) for trace_io /
 * trace_cache robustness fuzzing.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace copra::check {

/** The adversarial stream shapes the fuzzer composes. */
enum class FuzzShape : uint8_t
{
    DegeneratePcs = 0,  //!< pc 0 / unaligned / top-of-address-space / hammered
    AliasHeavy,         //!< strided pcs colliding in small tables
    LoopNests,          //!< trip counts around 1, 2, 254..257 saturation
    CorrelationChain,   //!< outcomes = xor of recent source branches
    MixedKinds,         //!< jumps/calls/returns splitting batch runs
    RandomSoup,         //!< everything uniformly random
    TagAliasing,        //!< pc strides hitting same-index/same-tag slots
                        //!< of small tagged tables (TAGE edge paths)
    DeepHistory,        //!< correlations at distances beyond any folded
                        //!< history window, plus fold-flushing runs
    VmDispatch,         //!< interpreter dispatch lowered to else-if
                        //!< chains (workload/frontier.hpp "interp")
    DataDependent,      //!< regime-switching data-dependent branches
                        //!< ("datadep": sorted / walk / noise streams)
    LongPeriodNest,     //!< co-prime counters and long-period loop
                        //!< patterns ("nestloop" shapes)
};

/** Number of FuzzShape values (for enumeration in tests). */
inline constexpr unsigned kFuzzShapeCount = 11;

/** Human-readable shape name. */
const char *fuzzShapeName(FuzzShape shape);

/**
 * Append one shape's segment to @p out, emitting exactly @p conditionals
 * conditional branches (plus any non-conditional records the shape
 * interleaves). Deterministic given the Rng state.
 */
void appendFuzzSegment(trace::Trace &out, FuzzShape shape, Rng &rng,
                       uint64_t conditionals);

/**
 * Build a fuzz trace of roughly @p conditionals conditional branches
 * (exactly that many, spread over 1..4 seed-chosen segments). The trace
 * is named "fuzz-<seed>" and records the seed.
 */
trace::Trace fuzzTrace(uint64_t seed, uint64_t conditionals = 2000);

/**
 * Return a corrupted copy of @p bytes (a serialized binary trace). The
 * mutation is chosen from the seed; the result is guaranteed to differ
 * from the input. Mutations targeting the header (magic, version,
 * record count, kind bytes, truncation) make readBinary() throw; a
 * payload bit flip fails the checksum; a re-sealed forgery (see
 * forgeImage) passes the checksum and must fail verification. Where a
 * forgery does not apply (e.g. @p bytes is not a cache-v3 image) a
 * bit is flipped instead.
 */
std::string corruptBytes(const std::string &bytes, uint64_t seed);

/**
 * Tampering with a cache-v3 image that forgeImage() re-seals under a
 * valid checksum, so only the loader's verification pass can catch it.
 */
enum class Forgery : uint8_t
{
    StaticIdOtherPc = 0, //!< a repeat record's id names another seen pc
    StaticIdOutOfRange,  //!< a static id at or past the static pc count
    StaticIdOrder,       //!< ids 0 and 1 swapped (pcs kept consistent)
    DuplicateStaticPc,   //!< the last static pc repeats the first one
    TakenTwo,            //!< one taken byte set to 2
};

/** Number of Forgery values. */
inline constexpr unsigned kForgeryCount = 5;

/**
 * Apply @p forgery to the cache-v3 image @p bytes (the record touched
 * is chosen from @p seed) and recompute its checksum. Every other
 * invariant the forgery does not target is kept, so the image fails
 * exactly one check. Returns "" when @p bytes is not a v3 image or
 * has too few static branches for the forgery.
 */
std::string forgeImage(const std::string &bytes, Forgery forgery,
                       uint64_t seed);

} // namespace copra::check

