/**
 * @file
 * FoldedHistory's tracked folds against their one-line definition:
 * after every push of a seeded random stream each register must equal
 * fold(L, C) and check::refFold over a plain std::vector<bool>, across
 * windows shorter than, equal to, multiples of and longer than the
 * width, and across the 64-bit word boundary; plus the track() contract
 * (capacity, bad geometry) and the roster's largest geometries.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "check/ref_models.hpp"
#include "predictor/history_fold.hpp"
#include "predictor/perceptron.hpp"
#include "predictor/tage.hpp"
#include "util/rng.hpp"

namespace copra::predictor {
namespace {

const unsigned kLengths[] = {1, 5, 8, 9, 13, 32, 63, 64, 65, 80, 127, 128};
const unsigned kWidths[] = {1, 7, 8, 9, 10, 12, 31, 32};

/** One FoldedHistory tracking @p pairs, with their ids. */
struct TrackedSet
{
    FoldedHistory history;
    std::vector<std::pair<unsigned, unsigned>> pairs;
    std::vector<unsigned> ids;

    explicit TrackedSet(std::vector<std::pair<unsigned, unsigned>> p)
        : pairs(std::move(p))
    {
        for (auto [length, width] : pairs)
            ids.push_back(history.track(length, width));
    }
};

/** Every length x width pair, split into kMaxTracked-sized groups. */
std::vector<std::vector<std::pair<unsigned, unsigned>>>
pairGroups()
{
    std::vector<std::vector<std::pair<unsigned, unsigned>>> groups(1);
    for (unsigned length : kLengths)
        for (unsigned width : kWidths) {
            if (groups.back().size() == FoldedHistory::kMaxTracked)
                groups.emplace_back();
            groups.back().push_back({length, width});
        }
    return groups;
}

/** Every register of @p t agrees with fold() and refFold(@p ref). */
void
expectRegistersExact(const TrackedSet &t, const std::vector<bool> &ref,
                     size_t step)
{
    for (size_t i = 0; i < t.ids.size(); ++i) {
        auto [length, width] = t.pairs[i];
        uint64_t reg = t.history.folded(t.ids[i]);
        ASSERT_EQ(reg, t.history.fold(length, width))
            << "L=" << length << " C=" << width << " step " << step;
        ASSERT_EQ(reg, check::refFold(ref, length, width))
            << "L=" << length << " C=" << width << " step " << step;
    }
}

/** Push @p n seeded outcomes into @p t and @p ref, checking each step. */
void
pushAndCheck(TrackedSet &t, std::vector<bool> &ref, Rng &rng, size_t n)
{
    for (size_t step = 0; step < n; ++step) {
        bool taken = rng.bernoulli(0.5);
        t.history.push(taken);
        ref.push_back(taken);
        expectRegistersExact(t, ref, step);
    }
}

TEST(FoldedHistory, TrackedFoldsMatchDefinitionEveryPush)
{
    uint64_t seed = 1;
    for (const auto &group : pairGroups()) {
        TrackedSet t(group);
        std::vector<bool> ref;
        expectRegistersExact(t, ref, 0); // empty history folds to zero
        Rng rng(seed++);
        pushAndCheck(t, ref, rng, 600);
    }
}

TEST(FoldedHistory, TrackStartsFromTheCurrentHistory)
{
    FoldedHistory h;
    std::vector<bool> ref;
    Rng rng(5);
    for (int i = 0; i < 100; ++i) {
        bool taken = rng.bernoulli(0.5);
        h.push(taken);
        ref.push_back(taken);
    }
    unsigned id = h.track(65, 12);
    EXPECT_EQ(h.folded(id), check::refFold(ref, 65, 12));
}

TEST(FoldedHistoryDeath, TrackPastCapacityIsFatal)
{
    FoldedHistory h;
    for (unsigned i = 0; i < FoldedHistory::kMaxTracked; ++i)
        h.track(i + 1, 8);
    EXPECT_EXIT(h.track(100, 8), ::testing::ExitedWithCode(1),
                "kMaxTracked");
}

TEST(FoldedHistoryDeath, TrackBadGeometryIsFatal)
{
    FoldedHistory h;
    EXPECT_EXIT(h.track(129, 8), ::testing::ExitedWithCode(1), "length");
    EXPECT_EXIT(h.track(0, 8), ::testing::ExitedWithCode(1), "length");
    EXPECT_EXIT(h.track(64, 0), ::testing::ExitedWithCode(1), "width");
    EXPECT_EXIT(h.track(64, 33), ::testing::ExitedWithCode(1), "width");
}

TEST(FoldedHistory, LargestRosterGeometriesFitTheCapacity)
{
    // TAGE: 8 tables x (index, tag, tag-1) folds = kMaxTracked.
    TageConfig tage;
    tage.numTables = 8;
    tage.tableBits = 12;
    tage.tagBits = 11;
    tage.maxHistory = FoldedHistory::kMaxBits;
    Tage big_tage(tage);
    EXPECT_EQ(big_tage.config().numTables, 8u);

    // Perceptron: 16 tables, 15 history folds, 15 x 8 = 120 bits.
    PerceptronConfig perceptron;
    perceptron.numTables = 16;
    perceptron.segmentBits = 8;
    Perceptron big_perceptron(perceptron);
    EXPECT_EQ(big_perceptron.config().historyBits(), 120u);
}

} // namespace
} // namespace copra::predictor
