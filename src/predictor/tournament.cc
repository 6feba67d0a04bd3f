#include "predictor/tournament.hpp"

#include "util/logging.hpp"

namespace copra::predictor {

Tournament::Tournament(const TournamentConfig &config)
    : config_(config),
      global_(TwoLevelConfig::gshare(config.globalHistory)),
      local_(TwoLevelConfig::pas(config.localHistory, config.localBhtBits,
                                 config.localSelectBits)),
      btb_(config.btb)
{
    fatalIf(config_.chooserBits == 0 || config_.chooserBits > 24,
            "tournament chooser bits must be in 1..24");
    fatalIf(config_.returnStackDepth > 1024,
            "tournament return stack depth must be <= 1024");
    chooser_.assign(size_t(1) << config_.chooserBits, Counter2{});
    returnStack_.assign(config_.returnStackDepth, 0);
}

Tournament::~Tournament() = default;

size_t
Tournament::chooserIndex(uint64_t pc) const noexcept
{
    return (pc >> 2) & ((size_t(1) << config_.chooserBits) - 1);
}

bool
Tournament::btbHit(uint64_t pc) const noexcept
{
    return btb_.find(pc) != nullptr;
}

bool
Tournament::step(const trace::BranchRecord &br, bool taken) noexcept
{
    // Both components always train — the Alpha 21264 policy; training
    // only the selected one starves the loser and locks the chooser in.
    bool global_pred = global_.step(br, taken);
    bool local_pred = local_.step(br, taken);
    Counter2 &chooser = chooser_[chooserIndex(br.pc)];
    bool use_global = chooser.taken();
    bool prediction = use_global ? global_pred : local_pred;
    if (use_global)
        ++stats_.choseGlobal;
    else
        ++stats_.choseLocal;
    // BTB miss model: a taken prediction without a buffered target
    // cannot redirect fetch, so the effective prediction collapses to
    // not-taken (fall-through is the only fetchable path).
    if (prediction && !btbHit(br.pc)) {
        ++stats_.btbMissSquashes;
        prediction = false;
    }

    // The chooser learns only from disagreement: move toward the
    // component that was right when exactly one of them was.
    if (global_pred != local_pred) {
        chooser.update(global_pred == taken);
        ++stats_.chooserTrains;
    }

    // A taken conditional installs (or refreshes) its BTB entry.
    if (taken)
        btb_.access(br.pc) = br.target;
    return prediction;
}

void
Tournament::observe(const trace::BranchRecord &br) noexcept
{
    using trace::BranchKind;
    switch (br.kind) {
      case BranchKind::Jump:
        // Unconditional transfers occupy BTB entries too — they are the
        // capacity pressure a conditional-only model would miss.
        btb_.access(br.pc) = br.target;
        break;
      case BranchKind::Call:
        btb_.access(br.pc) = br.target;
        if (config_.returnStackDepth != 0) {
            returnStack_[rasTop_] = br.pc + 4; // return address
            rasTop_ = (rasTop_ + 1) % config_.returnStackDepth;
            if (rasSize_ < config_.returnStackDepth)
                ++rasSize_;
        }
        break;
      case BranchKind::Return:
        ++stats_.returnsSeen;
        if (config_.returnStackDepth == 0 || rasSize_ == 0) {
            ++stats_.returnUnderflows;
        } else {
            rasTop_ = (rasTop_ + config_.returnStackDepth - 1) %
                config_.returnStackDepth;
            --rasSize_;
            if (returnStack_[rasTop_] == br.target)
                ++stats_.returnHits;
        }
        break;
      case BranchKind::Conditional:
        break; // delivered via step, never here
    }
}

std::string
Tournament::name() const
{
    return config_.label;
}

} // namespace copra::predictor
