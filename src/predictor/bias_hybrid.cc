#include "predictor/bias_hybrid.hpp"

#include "trace/trace_stats.hpp"
#include "util/logging.hpp"

namespace copra::predictor {

BiasClassifyingHybrid::BiasClassifyingHybrid(
    std::unordered_map<uint64_t, BiasProfile> profile, PredictorPtr dynamic,
    std::string label)
    : profile_(std::move(profile)), dynamic_(std::move(dynamic)),
      label_(std::move(label))
{
    fatalIf(!dynamic_, "bias hybrid needs a dynamic component");
}

std::unordered_map<uint64_t, BiasProfile>
BiasClassifyingHybrid::profileTrace(const trace::Trace &trace,
                                    double threshold)
{
    const trace::TraceStats stats(trace);
    std::unordered_map<uint64_t, BiasProfile> profile;
    profile.reserve(stats.staticBranches());
    for (const auto &[pc, branch] : stats.perBranch()) {
        BiasProfile entry;
        entry.majority = 2 * branch.taken >= branch.execs;
        entry.strongly =
            static_cast<double>(branch.idealStaticCorrect()) >=
            threshold * static_cast<double>(branch.execs);
        profile.emplace(pc, entry);
    }
    return profile;
}

const BiasProfile *
BiasClassifyingHybrid::entry(uint64_t pc) const noexcept
{
    auto it = profile_.find(pc);
    return it == profile_.end() ? nullptr : &it->second;
}

bool
BiasClassifyingHybrid::step(const trace::BranchRecord &br,
                            bool taken) noexcept
{
    const BiasProfile *e = entry(br.pc);
    // Strongly biased branches neither consult nor train the dynamic
    // component — that is the scheme's point: the weakly biased branches
    // get the whole dynamic table to themselves. Their outcomes still
    // reach the component's *history* via observe-like shifting in real
    // designs; we follow Chang et al. in excluding them entirely.
    if (e != nullptr && e->strongly)
        return e->majority;
    return dynamic_->step(br, taken);
}

void
BiasClassifyingHybrid::observe(const trace::BranchRecord &br) noexcept
{
    dynamic_->observe(br);
}

std::string
BiasClassifyingHybrid::name() const
{
    return "bias-hybrid(" + dynamic_->name() + label_ + ")";
}

size_t
BiasClassifyingHybrid::stronglyBiasedBranches() const
{
    size_t n = 0;
    // copra-lint: allow(unordered-iter) -- commutative integer aggregation; result is order-independent
    for (const auto &[pc, e] : profile_)
        if (e.strongly)
            ++n;
    return n;
}

} // namespace copra::predictor
