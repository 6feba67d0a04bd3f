#include "workload/program.hpp"

#include <algorithm>

#include "obs/instruments.hpp"
#include "obs/registry.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace copra::workload {

TripSpec
TripSpec::fixed(uint32_t n)
{
    panicIf(n == 0, "trip count must be >= 1");
    TripSpec spec;
    spec.kind = Kind::Fixed;
    spec.lo = spec.hi = n;
    return spec;
}

TripSpec
TripSpec::drift(uint32_t lo, uint32_t hi, uint32_t period)
{
    panicIf(lo == 0 || lo > hi, "drift trip range must satisfy 1 <= lo <= hi");
    panicIf(period == 0, "drift period must be >= 1");
    TripSpec spec;
    spec.kind = Kind::Drift;
    spec.lo = lo;
    spec.hi = hi;
    spec.period = period;
    return spec;
}

TripSpec
TripSpec::uniform(uint32_t lo, uint32_t hi)
{
    panicIf(lo == 0 || lo > hi, "trip range must satisfy 1 <= lo <= hi");
    TripSpec spec;
    spec.kind = Kind::Uniform;
    spec.lo = lo;
    spec.hi = hi;
    return spec;
}

TripState::TripState(const TripSpec &spec, Rng rng)
    : spec_(spec), rng_(rng)
{
    current_ = static_cast<uint32_t>(rng_.range(spec_.lo, spec_.hi));
}

uint32_t
TripState::next()
{
    switch (spec_.kind) {
      case TripSpec::Kind::Fixed:
        current_ = spec_.lo;
        break;
      case TripSpec::Kind::Drift:
        if (++invocations_ % spec_.period == 0) {
            // Random walk one step within [lo, hi].
            if (current_ <= spec_.lo)
                ++current_;
            else if (current_ >= spec_.hi)
                --current_;
            else
                current_ += rng_.bernoulli(0.5) ? 1 : -1;
        }
        break;
      case TripSpec::Kind::Uniform:
        current_ = static_cast<uint32_t>(rng_.range(spec_.lo, spec_.hi));
        break;
    }
    return current_;
}

ExecContext::ExecContext(const Program &prog, trace::Trace &out,
                         uint64_t budget_conditionals, uint64_t seed)
    : program(prog), out_(out), budget_(budget_conditionals),
      done_(budget_conditionals == 0),
      assignRng_(mix64(seed ^ 0xA55A5AA5ull))
{
    Rng seeder(seed);
    vars_.resize(prog.conditionCount(), 0);
    sources_.reserve(prog.conditionCount());
    for (size_t i = 0; i < prog.conditionCount(); ++i)
        sources_.emplace_back(prog.condition(i), seeder.fork());
    trips_.reserve(prog.tripSiteCount());
    for (size_t i = 0; i < prog.tripSiteCount(); ++i)
        trips_.emplace_back(prog.tripSite(i), seeder.fork());
    // Give every variable an initial value.
    for (size_t i = 0; i < vars_.size(); ++i)
        vars_[i] = sources_[i].next() ? 1 : 0;
}

void
ExecContext::emitConditional(uint64_t pc, uint64_t target, bool taken)
{
    if (done_)
        return;
    out_.append({pc, target, trace::BranchKind::Conditional, taken});
    if (++emitted_ >= budget_)
        done_ = true;
}

void
ExecContext::emitOther(uint64_t pc, uint64_t target, trace::BranchKind kind)
{
    if (done_)
        return;
    out_.append({pc, target, kind, true});
}

void
ExecContext::sample(unsigned var)
{
    vars_[var] = sources_[var].next() ? 1 : 0;
}

void
ExecContext::assign(unsigned var, double p)
{
    vars_[var] = assignRng_.bernoulli(p) ? 1 : 0;
}

void
BlockStmt::exec(ExecContext &ctx) const
{
    for (const auto &stmt : stmts_) {
        if (ctx.done())
            return;
        stmt->exec(ctx);
    }
}

void
IfStmt::exec(ExecContext &ctx) const
{
    bool cond = pred_.eval(ctx.vars());
    ctx.emitConditional(pc_, pc_ + 64, cond);
    if (ctx.done())
        return;
    if (cond) {
        if (then_)
            then_->exec(ctx);
    } else {
        if (else_)
            else_->exec(ctx);
    }
}

void
ChainStmt::exec(ExecContext &ctx) const
{
    for (const auto &arm : arms_) {
        bool cond = arm.pred.eval(ctx.vars());
        ctx.emitConditional(arm.pc, arm.pc + 64, cond);
        if (ctx.done())
            return;
        if (cond) {
            if (arm.block)
                arm.block->exec(ctx);
            return;
        }
    }
    if (else_)
        else_->exec(ctx);
}

void
ForStmt::exec(ExecContext &ctx) const
{
    uint32_t trips = ctx.tripState(tripSite_).next();
    for (uint32_t i = 0; i < trips; ++i) {
        if (body_)
            body_->exec(ctx);
        if (ctx.done())
            return;
        // Bottom-test loop-closing branch: taken while iterations remain.
        ctx.emitConditional(bottomPc_, headPc_, i + 1 < trips);
        if (ctx.done())
            return;
    }
}

void
WhileStmt::exec(ExecContext &ctx) const
{
    uint32_t trips = ctx.tripState(tripSite_).next();
    for (uint32_t i = 0; i <= trips; ++i) {
        // Top-test exit branch: taken only when the loop is done.
        bool exit_now = i == trips;
        ctx.emitConditional(headPc_, exitTarget_, exit_now);
        if (ctx.done() || exit_now)
            return;
        if (body_)
            body_->exec(ctx);
        if (ctx.done())
            return;
        ctx.emitOther(jumpPc_, headPc_, trace::BranchKind::Jump);
    }
}

void
CallStmt::exec(ExecContext &ctx) const
{
    if (ctx.callDepth >= ExecContext::maxCallDepth)
        return;
    const Function &fn = ctx.program.function(callee_);
    ctx.emitOther(pc_, fn.entryPc, trace::BranchKind::Call);
    if (ctx.done())
        return;
    ++ctx.callDepth;
    if (fn.body)
        fn.body->exec(ctx);
    --ctx.callDepth;
    if (ctx.done())
        return;
    ctx.emitOther(fn.returnPc, pc_ + 4, trace::BranchKind::Return);
}

unsigned
Program::addCondition(const ConditionSpec &spec)
{
    conditions_.push_back(spec);
    return static_cast<unsigned>(conditions_.size()) - 1;
}

size_t
Program::addTripSite(const TripSpec &spec)
{
    tripSites_.push_back(spec);
    return tripSites_.size() - 1;
}

size_t
Program::addFunction(Function fn)
{
    functions_.push_back(std::move(fn));
    return functions_.size() - 1;
}

trace::Trace
Program::run(const std::string &name, uint64_t budget_conditionals,
             uint64_t seed) const
{
    panicIf(functions_.empty(), "Program::run with no functions");
    trace::Trace out(name, seed);
    out.reserve(budget_conditionals + budget_conditionals / 4);
    ExecContext ctx(*this, out, budget_conditionals, seed);
    const Function &driver = functions_.front();
    panicIf(!driver.body, "driver function has no body");
    while (!ctx.done()) {
        size_t before = out.size();
        driver.body->exec(ctx);
        panicIf(out.size() == before,
                "driver emitted no records; program would never terminate");
    }
    return out;
}

trace::Trace
Program::runParallel(const std::string &name, uint64_t budget_conditionals,
                     uint64_t seed) const
{
    // Chunk size trades fan-out granularity against splice frequency:
    // each chunk restarts the condition sources and trip states from a
    // fresh seed, so chunks must be long enough that the re-warmed
    // splice points are a vanishing fraction of the stream.
    constexpr uint64_t kChunkConditionals = uint64_t(1) << 18;
    if (budget_conditionals <= kChunkConditionals)
        return run(name, budget_conditionals, seed);

    size_t chunks = static_cast<size_t>(
        (budget_conditionals + kChunkConditionals - 1) / kChunkConditionals);
    std::vector<trace::Trace> parts(chunks);
    parallelFor(globalPool(), chunks, [&](size_t i) {
        uint64_t begin = uint64_t(i) * kChunkConditionals;
        uint64_t budget =
            std::min(kChunkConditionals, budget_conditionals - begin);
        // Chunk 0 replays run()'s exact stream; later chunks draw
        // decorrelated streams from a seed mixed with the chunk index.
        uint64_t chunk_seed =
            i == 0 ? seed : mix64(seed ^ (0x9E3779B97F4A7C15ull * i));
        parts[i] = run(name, budget, chunk_seed);
    });

    trace::Trace out(name, seed);
    out.reserve(budget_conditionals + budget_conditionals / 4);
    for (const trace::Trace &part : parts)
        out.appendTrace(part);
    obs::count(obs::ids().traceGenChunks, chunks);
    obs::count(obs::ids().traceGenConditionals, budget_conditionals);
    return out;
}

} // namespace copra::workload
