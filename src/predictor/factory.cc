#include "predictor/factory.hpp"

#include <charconv>
#include <limits>
#include <map>
#include <set>

#include "predictor/bimodal.hpp"
#include "predictor/block_pattern.hpp"
#include "predictor/contracts.hpp"
#include "predictor/interference_free.hpp"
#include "predictor/loop_predictor.hpp"
#include "predictor/perceptron.hpp"
#include "predictor/static_pred.hpp"
#include "predictor/tage.hpp"
#include "predictor/tournament.hpp"
#include "predictor/two_level.hpp"
#include "util/logging.hpp"

namespace copra::predictor {

namespace {

/** A parsed spec. The getters mark each key they look up as read, so
 * makePredictor can reject a key the named predictor never reads. */
struct Spec
{
    std::string text;
    std::string name;
    std::map<std::string, std::string> params;
    std::set<std::string> read;
};

Spec
parseSpec(const std::string &text)
{
    Spec spec;
    spec.text = text;
    auto colon = text.find(':');
    spec.name = text.substr(0, colon);
    if (colon == std::string::npos)
        return spec;
    std::string rest = text.substr(colon + 1);
    size_t pos = 0;
    while (pos < rest.size()) {
        size_t comma = rest.find(',', pos);
        std::string item = rest.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        auto eq = item.find('=');
        if (eq == std::string::npos || eq == 0)
            fatal("malformed predictor parameter '" + item + "' in '" +
                  text + "'");
        spec.params[item.substr(0, eq)] = item.substr(eq + 1);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return spec;
}

unsigned
getUnsigned(Spec &spec, const std::string &key, unsigned fallback)
{
    spec.read.insert(key);
    auto it = spec.params.find(key);
    if (it == spec.params.end())
        return fallback;
    // The whole value in decimal digits: no sign, no trailing text,
    // nothing that wraps.
    const std::string &value = it->second;
    const char *last = value.data() + value.size();
    unsigned out = 0;
    auto [end, ec] = std::from_chars(value.data(), last, out);
    if (ec != std::errc() || end != last)
        fatal("predictor parameter " + key + "='" + value + "' in '" +
              spec.text + "' is not a number (want an unsigned decimal " +
              "<= " + std::to_string(std::numeric_limits<unsigned>::max()) +
              ")");
    return out;
}

PredictorPtr
build(Spec &spec)
{
    const std::string &name = spec.name;

    if (name == "taken")
        return std::make_unique<AlwaysTaken>();
    if (name == "nottaken")
        return std::make_unique<AlwaysNotTaken>();
    if (name == "btfnt")
        return std::make_unique<Btfnt>();
    if (name == "bimodal")
        return std::make_unique<Bimodal>(getUnsigned(spec, "bits", 12));
    if (name == "gshare") {
        auto config = TwoLevelConfig::gshare(getUnsigned(spec, "h", 16));
        config.counterBits = getUnsigned(spec, "cbits", 2);
        return std::make_unique<TwoLevel>(config);
    }
    if (name == "gag") {
        return std::make_unique<TwoLevel>(
            TwoLevelConfig::gag(getUnsigned(spec, "h", 16)));
    }
    if (name == "gas") {
        return std::make_unique<TwoLevel>(TwoLevelConfig::gas(
            getUnsigned(spec, "h", 12), getUnsigned(spec, "s", 4)));
    }
    if (name == "pas") {
        auto config = TwoLevelConfig::pas(
            getUnsigned(spec, "h", 12), getUnsigned(spec, "bht", 12),
            getUnsigned(spec, "s", 4));
        config.counterBits = getUnsigned(spec, "cbits", 2);
        return std::make_unique<TwoLevel>(config);
    }
    if (name == "pag") {
        return std::make_unique<TwoLevel>(TwoLevelConfig::pag(
            getUnsigned(spec, "h", 12), getUnsigned(spec, "bht", 12)));
    }
    if (name == "ifgshare")
        return std::make_unique<IfGshare>(getUnsigned(spec, "h", 16));
    if (name == "ifpas")
        return std::make_unique<IfPas>(getUnsigned(spec, "h", 12));
    if (name == "loop")
        return std::make_unique<LoopPredictor>();
    if (name == "block")
        return std::make_unique<BlockPatternPredictor>();
    if (name == "tage") {
        TageConfig config;
        config.baseBits = getUnsigned(spec, "base", config.baseBits);
        config.tableBits = getUnsigned(spec, "tbits", config.tableBits);
        config.tagBits = getUnsigned(spec, "tag", config.tagBits);
        config.numTables = getUnsigned(spec, "tables", config.numTables);
        config.minHistory = getUnsigned(spec, "hmin", config.minHistory);
        config.maxHistory = getUnsigned(spec, "hmax", config.maxHistory);
        config.agingPeriod = getUnsigned(
            spec, "aging", static_cast<unsigned>(config.agingPeriod));
        return std::make_unique<Tage>(config);
    }
    if (name == "perceptron") {
        PerceptronConfig config;
        config.tableBits = getUnsigned(spec, "tbits", config.tableBits);
        config.numTables = getUnsigned(spec, "tables", config.numTables);
        config.segmentBits = getUnsigned(spec, "seg", config.segmentBits);
        config.initialTheta = static_cast<int>(
            getUnsigned(spec, "theta",
                        static_cast<unsigned>(config.initialTheta)));
        return std::make_unique<Perceptron>(config);
    }
    if (name == "tournament") {
        TournamentConfig config;
        config.globalHistory =
            getUnsigned(spec, "gh", config.globalHistory);
        config.localHistory = getUnsigned(spec, "lh", config.localHistory);
        config.localBhtBits =
            getUnsigned(spec, "bht", config.localBhtBits);
        config.localSelectBits =
            getUnsigned(spec, "s", config.localSelectBits);
        config.chooserBits =
            getUnsigned(spec, "chooser", config.chooserBits);
        unsigned btb_sets = getUnsigned(spec, "btbsets", 9);
        unsigned btb_ways = getUnsigned(spec, "btbways", 4);
        config.btb = btb_ways == 0 ? BtbConfig::perfect()
                                   : BtbConfig::finite(btb_sets, btb_ways);
        config.returnStackDepth =
            getUnsigned(spec, "ras", config.returnStackDepth);
        return std::make_unique<Tournament>(config);
    }
    fatal("unknown predictor '" + name + "'");
}

} // namespace

PredictorPtr
makePredictor(const std::string &text)
{
    Spec spec = parseSpec(text);
    PredictorPtr pred = build(spec);
    for (const auto &[key, value] : spec.params) {
        if (spec.read.count(key) == 0)
            fatal("predictor '" + spec.name + "' has no parameter '" +
                  key + "' (in '" + text + "')");
    }
    return pred;
}

std::vector<std::string>
knownPredictors()
{
    return {
        "taken", "nottaken", "btfnt", "bimodal", "gshare", "gag",
        "gas", "pas", "pag", "ifgshare", "ifpas", "loop", "block",
        "tage", "perceptron", "tournament",
    };
}

} // namespace copra::predictor
