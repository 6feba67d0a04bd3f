#include "check/fuzz.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <optional>

#include "trace/trace_io.hpp"

#include "util/logging.hpp"

namespace copra::check {

using trace::BranchKind;
using trace::BranchRecord;
using trace::Trace;

namespace {

/** A conditional record; target direction chosen by the caller. */
BranchRecord
cond(uint64_t pc, uint64_t target, bool taken)
{
    return {pc, target, BranchKind::Conditional, taken};
}

void
degeneratePcs(Trace &out, Rng &rng, uint64_t n)
{
    // A tiny set of the worst addresses: zero, the smallest aligned pc,
    // unaligned pcs (the >> 2 word indexing must not crash or alias
    // differently between implementations), and pcs at the very top of
    // the 64-bit space (index masking must not overflow).
    static constexpr uint64_t kNasty[] = {
        0x0, 0x4, 0x3, 0x7, 0xffffffffffffff00ull, 0xfffffffffffffffcull,
        0xffffffffffffffffull, 0x80000000ull, 0x7ffffffcull,
    };
    size_t npcs = 1 + rng.index(3); // hammer 1..3 of them
    uint64_t pcs[3];
    for (size_t i = 0; i < npcs; ++i)
        pcs[i] = kNasty[rng.index(std::size(kNasty))];
    double bias = rng.bernoulli(0.5) ? 0.5 : (rng.bernoulli(0.5) ? 0.99 : 0.01);
    for (uint64_t i = 0; i < n; ++i) {
        uint64_t pc = pcs[rng.index(npcs)];
        // Mix forward and backward targets so isBackward() sees both.
        uint64_t target = rng.bernoulli(0.5) ? pc + 4 + rng.index(256) * 4
                                             : pc - rng.index(64) * 4;
        out.append(cond(pc, target, rng.bernoulli(bias)));
    }
}

void
aliasHeavy(Trace &out, Rng &rng, uint64_t n)
{
    // Strided pcs that collide in any table indexed by fewer than
    // `aliasBits` word-address bits: pc_i = base + i * (4 << aliasBits).
    unsigned alias_bits = 4 + static_cast<unsigned>(rng.index(13)); // 4..16
    size_t npcs = 4 + rng.index(29);                                // 4..32
    uint64_t base = rng.index(1 << 20) * 4;
    uint64_t stride = uint64_t(4) << alias_bits;
    // Per-pc fixed bias so counters pull in conflicting directions.
    std::vector<double> bias(npcs);
    for (double &b : bias)
        b = rng.uniform();
    for (uint64_t i = 0; i < n; ++i) {
        size_t which = rng.index(npcs);
        uint64_t pc = base + which * stride;
        out.append(cond(pc, pc + 8, rng.bernoulli(bias[which])));
    }
}

void
loopNests(Trace &out, Rng &rng, uint64_t n)
{
    // Loop branches with trip counts hugging the predictor's 255-run
    // saturation boundary plus the degenerate 1-2 trips, emitted as
    // alternating taken-blocks and a single exit (for-type) or the
    // mirrored while-type shape.
    static constexpr uint64_t kTrips[] = {1, 2, 3, 8, 254, 255, 256, 300};
    size_t nloops = 1 + rng.index(4);
    struct Loop
    {
        uint64_t pc;
        uint64_t trip;
        bool forType;   // taken trip times then one not-taken
        uint64_t phase = 0;
    };
    std::vector<Loop> loops(nloops);
    for (Loop &lp : loops) {
        lp.pc = 0x1000 + rng.index(1 << 12) * 4;
        lp.trip = kTrips[rng.index(std::size(kTrips))];
        lp.forType = rng.bernoulli(0.7);
    }
    for (uint64_t i = 0; i < n; ++i) {
        Loop &lp = loops[rng.index(nloops)];
        bool body = lp.phase < lp.trip;
        bool taken = lp.forType ? body : !body;
        lp.phase = body ? lp.phase + 1 : 0;
        // Loop-closing shape: backward target when taken direction is
        // the body (isBackward() true), forward exit otherwise.
        out.append(cond(lp.pc, lp.pc - 16, taken));
        // Occasionally perturb the trip count mid-stream, the
        // "changes infrequently" case of paper §4.1.1.
        if (lp.phase == 0 && rng.bernoulli(0.05))
            lp.trip = kTrips[rng.index(std::size(kTrips))];
    }
}

void
correlationChain(Trace &out, Rng &rng, uint64_t n)
{
    // Source branches take random outcomes; sink branches compute the
    // XOR of the last `depth` outcomes overall — exactly the signal a
    // history-indexed predictor keys on, and the hardest case for any
    // optimized path that mis-orders history updates.
    unsigned depth = 1 + static_cast<unsigned>(rng.index(16)); // 1..16
    size_t nsrc = 1 + rng.index(6);
    uint64_t sink_pc = 0x9000;
    std::vector<bool> recent;
    for (uint64_t i = 0; i < n; ++i) {
        bool is_sink = !recent.empty() && rng.bernoulli(0.4);
        uint64_t pc;
        bool taken;
        if (is_sink) {
            pc = sink_pc;
            bool x = false;
            size_t lookback = std::min<size_t>(depth, recent.size());
            for (size_t j = recent.size() - lookback; j < recent.size(); ++j)
                x ^= recent[j];
            taken = x;
        } else {
            pc = 0x8000 + rng.index(nsrc) * 4;
            taken = rng.bernoulli(0.5);
        }
        recent.push_back(taken);
        if (recent.size() > 64)
            recent.erase(recent.begin());
        out.append(cond(pc, pc + 4 + rng.index(32) * 4, taken));
    }
}

void
mixedKinds(Trace &out, Rng &rng, uint64_t n)
{
    // Conditionals with jumps/calls/returns spliced between them: the
    // driver batches maximal conditional runs, so every non-conditional
    // record is a batch boundary, and observe() must stay a no-op for
    // table predictors no matter where it lands.
    static constexpr BranchKind kOther[] = {BranchKind::Jump,
                                            BranchKind::Call,
                                            BranchKind::Return};
    size_t npcs = 2 + rng.index(15);
    uint64_t emitted = 0;
    while (emitted < n) {
        uint64_t run = 1 + rng.index(8);
        for (uint64_t j = 0; j < run && emitted < n; ++j, ++emitted) {
            uint64_t pc = 0x2000 + rng.index(npcs) * 4;
            out.append(cond(pc, pc - 8, rng.bernoulli(0.6)));
        }
        uint64_t breaks = rng.index(3); // 0..2 non-conditionals
        for (uint64_t j = 0; j < breaks; ++j) {
            uint64_t pc = 0x4000 + rng.index(64) * 4;
            BranchKind kind = kOther[rng.index(std::size(kOther))];
            // Non-conditional transfers are always taken by convention.
            out.append({pc, pc + 64, kind, true});
        }
    }
}

void
tagAliasing(Trace &out, Rng &rng, uint64_t n)
{
    // Strides tuned for small *tagged* tables (the differential TAGE
    // runs 5 index bits and 5 tag bits): a stride of (4 << idx_bits)
    // keeps the pc contribution to the index constant while tags vary,
    // and (4 << (idx_bits + tag_bits)) aliases pc bits out of both —
    // distinct branches then fight over the same tagged entry, driving
    // the allocate / useful-counter / eviction paths hard.
    unsigned idx_bits = 4 + static_cast<unsigned>(rng.index(4)); // 4..7
    unsigned tag_bits = 4 + static_cast<unsigned>(rng.index(4)); // 4..7
    uint64_t stride = rng.bernoulli(0.5)
        ? uint64_t(4) << idx_bits
        : uint64_t(4) << (idx_bits + tag_bits);
    size_t npcs = 2 + rng.index(7); // 2..8 warring branches
    uint64_t base = rng.index(1 << 16) * 4;
    // Mostly-biased branches: stable enough that tagged entries earn
    // useful credit, conflicting enough that allocations keep firing.
    std::vector<double> bias(npcs);
    for (double &b : bias)
        b = rng.bernoulli(0.5) ? 0.85 : 0.15;
    for (uint64_t i = 0; i < n; ++i) {
        size_t which = rng.index(npcs);
        uint64_t pc = base + which * stride;
        out.append(cond(pc, pc + 8, rng.bernoulli(bias[which])));
    }
}

void
deepHistory(Trace &out, Rng &rng, uint64_t n)
{
    // Sink outcomes are the parity of outcomes 100..300 branches back —
    // beyond every folded-history window in the roster (TAGE max
    // geometric length is 80, perceptron history is 56), so no predictor
    // can learn them; what the shape tests is that *long* histories fold
    // identically in optimized (packed-word) and reference (bit-vector)
    // implementations, including the cross-word seams. Long constant
    // runs are spliced in to flush every fold to a known state.
    unsigned depth = 100 + static_cast<unsigned>(rng.index(201)); // 100..300
    size_t nsrc = 1 + rng.index(4);
    uint64_t sink_pc = 0xa000;
    std::vector<bool> all;
    all.reserve(n);
    uint64_t emitted = 0;
    while (emitted < n) {
        if (all.size() > depth && rng.bernoulli(0.02)) {
            // Constant run: 40..200 identical outcomes sweep the packed
            // history words end to end.
            bool dir = rng.bernoulli(0.5);
            uint64_t run = 40 + rng.index(161);
            for (uint64_t j = 0; j < run && emitted < n; ++j, ++emitted) {
                uint64_t pc = 0xb000 + rng.index(4) * 4;
                all.push_back(dir);
                out.append(cond(pc, pc - 32, dir));
            }
            continue;
        }
        bool is_sink = all.size() > depth && rng.bernoulli(0.3);
        uint64_t pc;
        bool taken;
        if (is_sink) {
            pc = sink_pc;
            taken = all[all.size() - depth] ^ all[all.size() - 1];
        } else {
            pc = 0xa100 + rng.index(nsrc) * 4;
            taken = rng.bernoulli(0.5);
        }
        all.push_back(taken);
        out.append(cond(pc, pc + 4 + rng.index(16) * 4, taken));
        ++emitted;
    }
}

void
vmDispatch(Trace &out, Rng &rng, uint64_t n)
{
    // A miniature of the "interp" frontier family: a fixed bytecode
    // sequence with Markov successor structure, each opcode lowered to
    // the else-if compare chain a switch compiles to. The dispatch
    // outcomes are a deterministic function of the opcode stream, so
    // global-history predictors and reference models must agree on
    // long correlated chains with embedded unconditional jumps.
    unsigned opcodes = 4 + static_cast<unsigned>(rng.index(9)); // 4..12
    std::vector<uint8_t> successor(opcodes);
    for (uint8_t &s : successor)
        s = static_cast<uint8_t>(rng.index(opcodes));
    uint8_t op = static_cast<uint8_t>(rng.index(opcodes));
    uint64_t dispatch_pc = 0xc000;
    uint64_t handler_base = 0xd000;
    uint64_t emitted = 0;
    while (emitted < n) {
        op = rng.bernoulli(0.7)
            ? successor[op]
            : static_cast<uint8_t>(rng.index(opcodes));
        for (unsigned j = 0; j <= op && emitted < n; ++j, ++emitted)
            out.append(cond(dispatch_pc + j * 8,
                            handler_base + j * 0x100, j == op));
        if (emitted < n)
            out.append({handler_base + uint64_t(op) * 0x100 + 0x78,
                        dispatch_pc, BranchKind::Jump, true});
    }
}

void
dataDependent(Trace &out, Rng &rng, uint64_t n)
{
    // The "datadep" shape in miniature: the same static branches flip
    // between predictable and random as the value-stream regime
    // changes, stressing any predictor path that specializes on a
    // branch's recent behaviour.
    uint64_t body_pc = 0xe000;
    int64_t value = static_cast<int64_t>(rng.index(256));
    int64_t prev = 0;
    uint64_t emitted = 0;
    auto emit = [&](uint64_t pc, uint64_t target, bool taken) {
        if (emitted < n) {
            out.append(cond(pc, target, taken));
            ++emitted;
        }
    };
    while (emitted < n) {
        unsigned regime = static_cast<unsigned>(rng.index(3));
        uint64_t len = 16 + rng.index(113); // 16..128 elements
        for (uint64_t i = 0; i < len && emitted < n; ++i) {
            switch (regime) {
              case 0:
                value += rng.bernoulli(0.9) ? 1 : 0;
                break;
              case 1:
                value += static_cast<int64_t>(rng.index(17)) - 8;
                break;
              default:
                value = static_cast<int64_t>(rng.index(256));
                break;
            }
            emit(body_pc, body_pc + 0x40, value < 128);
            emit(body_pc + 8, body_pc + 0x48, value >= prev);
            emit(body_pc + 16, body_pc - 0x20, i + 1 < len);
            prev = value;
        }
    }
}

void
longPeriodNest(Trace &out, Rng &rng, uint64_t n)
{
    // The "nestloop" shape in miniature: co-prime period-48/period-37
    // counters (their xor repeats every 1776 iterations) and a
    // period-127 run pattern — periodicities past every history
    // window and loop-count saturation point in the roster.
    uint64_t pc = 0xf000;
    uint64_t tick = rng.index(1776);
    uint64_t emitted = 0;
    auto emit = [&](uint64_t p, uint64_t target, bool taken) {
        if (emitted < n) {
            out.append(cond(p, target, taken));
            ++emitted;
        }
    };
    while (emitted < n) {
        bool a = tick % 48 < 24;
        bool b = tick % 37 < 18;
        emit(pc, pc + 0x40, a);
        emit(pc + 8, pc + 0x48, b);
        emit(pc + 16, pc + 0x50, a != b);
        emit(pc + 24, pc - 0x80, tick % 127 < 96);
        ++tick;
    }
}

void
randomSoup(Trace &out, Rng &rng, uint64_t n)
{
    for (uint64_t i = 0; i < n; ++i) {
        BranchRecord rec;
        rec.pc = rng.next();
        rec.target = rng.next();
        rec.kind = BranchKind::Conditional;
        rec.taken = rng.bernoulli(0.5);
        out.append(rec);
    }
}

} // namespace

const char *
fuzzShapeName(FuzzShape shape)
{
    switch (shape) {
      case FuzzShape::DegeneratePcs:    return "degenerate-pcs";
      case FuzzShape::AliasHeavy:       return "alias-heavy";
      case FuzzShape::LoopNests:        return "loop-nests";
      case FuzzShape::CorrelationChain: return "correlation-chain";
      case FuzzShape::MixedKinds:       return "mixed-kinds";
      case FuzzShape::RandomSoup:       return "random-soup";
      case FuzzShape::TagAliasing:      return "tag-aliasing";
      case FuzzShape::DeepHistory:      return "deep-history";
      case FuzzShape::VmDispatch:       return "vm-dispatch";
      case FuzzShape::DataDependent:    return "data-dependent";
      case FuzzShape::LongPeriodNest:   return "long-period-nest";
    }
    return "unknown";
}

void
appendFuzzSegment(trace::Trace &out, FuzzShape shape, Rng &rng,
                  uint64_t conditionals)
{
    switch (shape) {
      case FuzzShape::DegeneratePcs:
        degeneratePcs(out, rng, conditionals);
        break;
      case FuzzShape::AliasHeavy:
        aliasHeavy(out, rng, conditionals);
        break;
      case FuzzShape::LoopNests:
        loopNests(out, rng, conditionals);
        break;
      case FuzzShape::CorrelationChain:
        correlationChain(out, rng, conditionals);
        break;
      case FuzzShape::MixedKinds:
        mixedKinds(out, rng, conditionals);
        break;
      case FuzzShape::RandomSoup:
        randomSoup(out, rng, conditionals);
        break;
      case FuzzShape::TagAliasing:
        tagAliasing(out, rng, conditionals);
        break;
      case FuzzShape::DeepHistory:
        deepHistory(out, rng, conditionals);
        break;
      case FuzzShape::VmDispatch:
        vmDispatch(out, rng, conditionals);
        break;
      case FuzzShape::DataDependent:
        dataDependent(out, rng, conditionals);
        break;
      case FuzzShape::LongPeriodNest:
        longPeriodNest(out, rng, conditionals);
        break;
    }
}

trace::Trace
fuzzTrace(uint64_t seed, uint64_t conditionals)
{
    Rng rng(mix64(seed ^ 0xc0ffee));
    Trace out("fuzz-" + std::to_string(seed), seed);
    // mixedKinds splices up to ~25% non-conditionals between runs.
    out.reserve(conditionals + conditionals / 4);
    uint64_t segments = 1 + rng.index(4); // 1..4 shapes per trace
    uint64_t left = conditionals;
    for (uint64_t s = 0; s < segments; ++s) {
        uint64_t share = s + 1 == segments
            ? left
            : left / (segments - s);
        auto shape = static_cast<FuzzShape>(rng.index(kFuzzShapeCount));
        appendFuzzSegment(out, shape, rng, share);
        left -= share;
    }
    return out;
}

namespace {

/** A cache-v3 image's header counts and layout; nullopt if @p bytes
 * is not a well-sized v3 image. */
struct ImageShape
{
    uint64_t records = 0;
    uint64_t statics = 0;
    trace::ImageLayout at;
};

std::optional<ImageShape>
imageShape(const std::string &bytes)
{
    namespace off = trace::header_offset;
    if (bytes.size() < off::kName || bytes.compare(0, 8, "COPRATRC") != 0)
        return std::nullopt;
    auto u64 = [&](size_t at) {
        uint64_t v;
        std::memcpy(&v, bytes.data() + at, sizeof v);
        return v;
    };
    uint64_t word = u64(off::kVersion);
    ImageShape shape{u64(off::kRecords), u64(off::kStaticPcs), {}};
    if (static_cast<uint32_t>(word) != trace::kTraceFormatVersion ||
        shape.records > bytes.size() || shape.statics > bytes.size())
        return std::nullopt;
    shape.at = trace::imageLayout(static_cast<uint32_t>(word >> 32),
                                  shape.records, shape.statics);
    if (shape.at.end != bytes.size())
        return std::nullopt;
    return shape;
}

} // namespace

std::string
forgeImage(const std::string &bytes, Forgery forgery, uint64_t seed)
{
    std::optional<ImageShape> shape = imageShape(bytes);
    if (!shape || shape->statics < 2 || shape->records < shape->statics)
        return {};
    std::string out = bytes;
    const trace::ImageLayout &at = shape->at;
    size_t n = static_cast<size_t>(shape->records);
    auto get = [&]<typename T>(size_t offset, T value) {
        std::memcpy(&value, out.data() + offset, sizeof value);
        return value;
    };
    auto put = [&]<typename T>(size_t offset, T value) {
        std::memcpy(out.data() + offset, &value, sizeof value);
    };
    auto id = [&](size_t i) {
        return get(at.staticIndex + 4 * i, uint32_t{});
    };
    auto setId = [&](size_t i, uint32_t v) {
        put(at.staticIndex + 4 * i, v);
    };
    auto staticPc = [&](size_t j) {
        return get(at.staticPcs + 8 * j, uint64_t{});
    };
    Rng rng(mix64(seed ^ 0xf0a6e5ull));

    switch (forgery) {
      case Forgery::StaticIdOtherPc: {
        // A record repeating an id seen before, once two ids are out:
        // re-pointing it at another seen id stays in range and in
        // first-appearance order, so only the pc check can catch it.
        std::vector<std::pair<size_t, uint32_t>> repeats; // (i, ids seen)
        uint32_t seen = 0;
        for (size_t i = 0; i < n; ++i) {
            if (id(i) < seen && seen >= 2)
                repeats.emplace_back(i, seen);
            seen = std::max(seen, id(i) + 1);
        }
        if (repeats.empty())
            return {};
        auto [i, seen_before] = repeats[rng.index(repeats.size())];
        setId(i, static_cast<uint32_t>(
                     (id(i) + 1 + rng.index(seen_before - 1)) % seen_before));
        break;
      }
      case Forgery::StaticIdOutOfRange:
        setId(rng.index(n),
              static_cast<uint32_t>(shape->statics + rng.index(16)));
        break;
      case Forgery::StaticIdOrder: {
        // Swapping ids 0 and 1 everywhere, and their pcs with them,
        // keeps every id naming its record's pc.
        uint64_t first = staticPc(0);
        put(at.staticPcs, staticPc(1));
        put(at.staticPcs + 8, first);
        for (size_t i = 0; i < n; ++i)
            if (id(i) < 2)
                setId(i, id(i) ^ 1);
        break;
      }
      case Forgery::DuplicateStaticPc: {
        // The last static branch takes the first one's pc, and so do
        // its records: ids stay consistent, only uniqueness breaks.
        uint32_t last = static_cast<uint32_t>(shape->statics - 1);
        put(at.staticPcs + 8 * last, staticPc(0));
        for (size_t i = 0; i < n; ++i)
            if (id(i) == last)
                put(at.pc + 8 * i, staticPc(0));
        break;
      }
      case Forgery::TakenTwo:
        out[at.taken + rng.index(n)] = 2;
        break;
    }
    put(trace::header_offset::kChecksum,
        trace::imageChecksum(
            reinterpret_cast<const unsigned char *>(out.data()), out.size()));
    return out;
}

std::string
corruptBytes(const std::string &bytes, uint64_t seed)
{
    Rng rng(mix64(seed ^ 0xbadbadull));
    std::string mutated = bytes;
    // Mutation kinds, weighted toward header damage (the paths the
    // trace cache must survive): 0 truncate, 1 magic smash, 2 version
    // bump, 3 record-count inflate, 4 kind poison, 5 payload bit flip,
    // 6.. a re-sealed forgery (bit flip where none applies).
    unsigned kind = static_cast<unsigned>(rng.index(6 + kForgeryCount));
    if (kind >= 6) {
        std::string forged =
            forgeImage(bytes, static_cast<Forgery>(kind - 6), rng.next());
        if (!forged.empty() && forged != bytes)
            return forged;
        kind = 5;
    }
    switch (kind) {
      case 0: // truncate anywhere, including mid-header and mid-record
        mutated.resize(rng.index(bytes.empty() ? 1 : bytes.size()));
        if (mutated == bytes)
            mutated.resize(bytes.size() / 2);
        break;
      case 1: // smash one magic byte
        if (mutated.size() >= 8)
            mutated[rng.index(8)] ^= char(0x40 | (1 + rng.index(0x3f)));
        break;
      case 2: // implausible format version
        if (mutated.size() >= trace::header_offset::kVersion + 4)
            mutated[trace::header_offset::kVersion + rng.index(4)] ^=
                char(1 + rng.index(0xff));
        break;
      case 3: // inflate the record count so columns run past EOF
        if (mutated.size() >= trace::header_offset::kRecords + 8)
            mutated[trace::header_offset::kRecords + 7] =
                char(0x7f); // count |= 2^63-ish
        break;
      case 4: // poison one byte of the kind column
        if (std::optional<ImageShape> shape = imageShape(bytes);
            shape && shape->records != 0)
            mutated[shape->at.kind + rng.index(shape->records)] =
                char(4 + rng.index(250)); // > Return
        break;
      default: // flip one payload bit anywhere
        if (!mutated.empty()) {
            size_t off = rng.index(mutated.size());
            mutated[off] ^= char(1 << rng.index(8));
        }
        break;
    }
    if (mutated == bytes && !mutated.empty())
        mutated.pop_back(); // guarantee the copy differs
    return mutated;
}

} // namespace copra::check
