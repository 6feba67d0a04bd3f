#include "core/selective.hpp"

#include "util/logging.hpp"

namespace copra::core {

TagOutcome
stateOf(const std::vector<TagState> &collected, const Tag &tag) noexcept
{
    for (const TagState &ts : collected)
        if (ts.tag == tag)
            return ts.taken ? TagOutcome::Taken : TagOutcome::NotTaken;
    return TagOutcome::NotInPath;
}

SelectiveTable::SelectiveTable(unsigned arity)
    : arity_(arity)
{
    panicIf(arity == 0 || arity > 8, "selective table arity must be 1..8");
    counters_.assign(pow3(arity), Counter2{});
}

uint32_t
SelectiveTable::patternOf(const TagOutcome *states, unsigned arity) noexcept
{
    uint32_t pattern = 0;
    uint32_t radix = 1;
    for (unsigned i = 0; i < arity; ++i) {
        pattern += static_cast<uint32_t>(states[i]) * radix;
        radix *= 3;
    }
    return pattern;
}

bool
SelectiveTable::step(uint32_t pattern, bool taken) noexcept
{
    panicIf(pattern >= counters_.size(), "selective pattern out of range");
    Counter2 &counter = counters_[pattern];
    bool prediction = counter.taken();
    counter.update(taken);
    return prediction;
}

SelectivePredictor::SelectivePredictor(
    std::unordered_map<uint64_t, std::vector<Tag>> selections,
    unsigned depth)
    : selections_(std::move(selections)), depth_(depth), window_(depth)
{
    // copra-lint: allow(unordered-iter) -- validation-only pass; order cannot affect results
    for (const auto &[pc, tags] : selections_) {
        panicIf(tags.empty() || tags.size() > 8,
                "selective predictor selections must have 1..8 tags");
    }
}

uint32_t
SelectivePredictor::currentPattern(uint64_t pc) noexcept
{
    auto sel = selections_.find(pc);
    if (sel == selections_.end())
        return 0; // degenerate m = 0: single counter
    window_.collect(scratch_);
    TagOutcome states[8];
    unsigned arity = static_cast<unsigned>(sel->second.size());
    for (unsigned i = 0; i < arity; ++i)
        states[i] = stateOf(scratch_, sel->second[i]);
    return SelectiveTable::patternOf(states, arity);
}

bool
SelectivePredictor::step(const trace::BranchRecord &br, bool taken) noexcept
{
    auto sel = selections_.find(br.pc);
    unsigned arity = sel == selections_.end()
        ? 1 : static_cast<unsigned>(sel->second.size());
    uint32_t pattern = sel == selections_.end()
        ? 0 : currentPattern(br.pc);
    // The paper's hypothetical selective predictor is an analysis
    // instrument with unbounded per-pc tables; it sits outside the
    // perf roster and the runtime hot gates.
    // copra-lint: allow(hot-alloc) -- analysis instrument, unbounded tables
    auto [it, inserted] = tables_.try_emplace(br.pc, arity);
    // A table is created on the branch's first step with its arity;
    // the arity can never change afterwards.
    panicIf(it->second.arity() != arity, "selective predictor arity changed");
    bool prediction = it->second.step(pattern, taken);
    window_.push(br);
    return prediction;
}

void
SelectivePredictor::observe(const trace::BranchRecord &br) noexcept
{
    window_.push(br);
}

std::string
SelectivePredictor::name() const
{
    return "selective(n=" + std::to_string(depth_) + ")";
}

} // namespace copra::core
