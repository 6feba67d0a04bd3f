#include "core/mispredict_taxonomy.hpp"

#include <unordered_map>
#include <vector>

#include "obs/instruments.hpp"
#include "obs/registry.hpp"
#include "util/logging.hpp"
#include "util/sat_counter.hpp"
#include "util/shift_register.hpp"

namespace copra::core {

const char *
mispredictCauseName(MispredictCause cause)
{
    switch (cause) {
      case MispredictCause::Cold:
        return "cold";
      case MispredictCause::Interference:
        return "interference";
      case MispredictCause::Training:
        return "training";
      case MispredictCause::Noise:
        return "noise";
    }
    return "unknown";
}

MispredictBreakdown
classifyMispredicts(const trace::Trace &trace, unsigned history_bits)
{
    fatalIf(history_bits == 0 || history_bits > 26,
            "taxonomy history bits must be in 1..26");

    const size_t pht_size = size_t(1) << history_bits;
    const uint64_t hist_mask = (uint64_t(1) << history_bits) - 1;
    constexpr uint64_t kNoWriter = ~uint64_t(0);

    std::vector<Counter2> pht(pht_size);
    std::vector<uint64_t> last_writer(pht_size, kNoWriter);

    struct ContextStats
    {
        uint32_t taken = 0;
        uint32_t total = 0;
    };
    std::unordered_map<uint64_t, ContextStats> contexts;
    contexts.reserve(1 << 16);

    HistoryRegister history(history_bits);
    MispredictBreakdown breakdown;
    const trace::SoABlocks &soa = trace.soa();

    for (size_t i = 0; i < soa.size(); ++i) {
        const trace::BranchRecord rec = soa.record(i);
        if (!rec.isConditional())
            continue;
        uint64_t hist = history.value() & hist_mask;
        size_t index = (hist ^ (rec.pc >> 2)) & hist_mask;
        // Exact context identity: (static id < 2^32, history <= 26 bits).
        uint64_t context =
            (uint64_t(soa.staticIndex()[i]) << history_bits) | hist;

        bool predicted = pht[index].taken();
        bool correct = predicted == rec.taken;
        ++breakdown.dynamicBranches;
        if (correct) {
            ++breakdown.correct;
        } else {
            MispredictCause cause;
            if (last_writer[index] == kNoWriter) {
                cause = MispredictCause::Cold;
            } else if (last_writer[index] != context) {
                cause = MispredictCause::Interference;
            } else {
                // Our own context last trained this counter: did the
                // branch deviate from its learned behaviour, or had the
                // counter simply not converged yet?
                const ContextStats &stats = contexts[context];
                bool majority = 2 * stats.taken >= stats.total;
                cause = rec.taken == majority ? MispredictCause::Training
                                              : MispredictCause::Noise;
            }
            ++breakdown.byCause[static_cast<size_t>(cause)];
        }

        ContextStats &stats = contexts[context];
        ++stats.total;
        if (rec.taken)
            ++stats.taken;
        pht[index].update(rec.taken);
        last_writer[index] = context;
        history.push(rec.taken);
    }

    // Batched outside the per-branch loop: one counter add per cause
    // per classified trace.
    auto causeCount = [&breakdown](MispredictCause cause) {
        return breakdown.byCause[static_cast<size_t>(cause)];
    };
    obs::count(obs::ids().simTaxonomyCold,
               causeCount(MispredictCause::Cold));
    obs::count(obs::ids().simTaxonomyInterference,
               causeCount(MispredictCause::Interference));
    obs::count(obs::ids().simTaxonomyTraining,
               causeCount(MispredictCause::Training));
    obs::count(obs::ids().simTaxonomyNoise,
               causeCount(MispredictCause::Noise));
    return breakdown;
}

} // namespace copra::core
