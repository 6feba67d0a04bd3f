#include "predictor/static_pht.hpp"

namespace copra::predictor {

StaticPhtTwoLevel::StaticPhtTwoLevel(const TwoLevelConfig &config,
                                     std::vector<uint8_t> directions,
                                     size_t covered)
    : indexer_(config), directions_(std::move(directions)),
      covered_(covered)
{
}

StaticPhtTwoLevel
StaticPhtTwoLevel::profile(const trace::Trace &trace,
                           const TwoLevelConfig &config)
{
    TwoLevel walker(config);
    struct Tally
    {
        uint32_t taken = 0;
        uint32_t total = 0;
    };
    std::vector<Tally> tallies(size_t(1) << config.phtBits);

    for (const auto &rec : trace.records()) {
        if (!rec.isConditional())
            continue;
        Tally &tally = tallies[walker.phtIndex(rec.pc)];
        ++tally.total;
        if (rec.taken)
            ++tally.taken;
        // Advance the first-level history exactly as the adaptive
        // predictor would (the PHT it trains internally is unused).
        walker.step(rec, rec.taken);
    }

    std::vector<uint8_t> directions(tallies.size(), 1);
    size_t covered = 0;
    for (size_t i = 0; i < tallies.size(); ++i) {
        if (tallies[i].total == 0)
            continue;
        ++covered;
        directions[i] = 2 * tallies[i].taken >= tallies[i].total ? 1 : 0;
    }
    return StaticPhtTwoLevel(config, std::move(directions), covered);
}

bool
StaticPhtTwoLevel::step(const trace::BranchRecord &br, bool taken) noexcept
{
    bool prediction = directions_[indexer_.phtIndex(br.pc)] != 0;
    indexer_.step(br, taken);
    return prediction;
}

std::string
StaticPhtTwoLevel::name() const
{
    return "static-pht[" + indexer_.name() + "]";
}

double
StaticPhtTwoLevel::coverage() const
{
    if (directions_.empty())
        return 0.0;
    return static_cast<double>(covered_)
        / static_cast<double>(directions_.size());
}

} // namespace copra::predictor
