/**
 * @file
 * The state-contract gates (check/state_gates.hpp) under test: the
 * full factory roster must pass every gate, the planted hidden-state
 * bug must be caught by the round-trip (snapshot-completeness) probe
 * specifically, snapshot primitives must panic loudly on malformed
 * input, the generated STATE_BUDGETS table must cover the roster, and
 * the roster must name every factory predictor exactly once.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "check/differential.hpp"
#include "check/state_gates.hpp"
#include "predictor/factory.hpp"
#include "predictor/state.hpp"

using namespace copra;
using namespace copra::check;

TEST(StateGates, WholeRosterPasses)
{
    StateGateOptions options;
    options.seedBase = 11;
    options.traces = 3;
    options.conditionals = 800;
    GateReport report = runStateGates(options);
    EXPECT_TRUE(report.ok()) << formatGateReport("state gates", report);
    // 2 cold gates per spec + 2 per (spec, trace).
    EXPECT_EQ(report.gatesRun, defaultStateRoster().size() * (2 + 2 * 3));
}

TEST(GateReport, FormatNamesSubjectSeedAndNote)
{
    // The seed prints only when set, the subject only when the gate has
    // one (the ingest gates do not), and the note after the counts.
    GateReport report;
    report.gatesRun = 7;
    report.note = "alloc probe absent";
    report.failures = {{"gshare:h=7", "round-trip", 3, "diverges"},
                       {"gshare:h=7", "cold-restore", 0, "hash changed"},
                       {"", "forgery", 0, "accepted"}};
    EXPECT_EQ(formatGateReport("state gates", report),
              "state gates: 7 checks, 3 failure(s) [alloc probe absent]\n"
              "  FAIL gshare:h=7 [round-trip] seed=3: diverges\n"
              "  FAIL gshare:h=7 [cold-restore]: hash changed\n"
              "  FAIL [forgery]: accepted\n");
}

TEST(StateGates, RosterNamesEveryFactoryPredictorOnce)
{
    // The state gates and the hot gates both replay this hand-kept
    // list, so a factory predictor left off it would skip both in
    // silence.
    std::map<std::string, int> leads;
    for (const StatePredictor &entry : defaultStateRoster())
        ++leads[entry.spec.substr(0, entry.spec.find(':'))];
    for (const std::string &name : predictor::knownPredictors()) {
        EXPECT_EQ(leads[name], 1)
            << "factory predictor '" << name << "' should lead exactly "
            << "one roster spec";
        leads.erase(name);
    }
    for (const auto &[name, count] : leads)
        ADD_FAILURE() << count << " roster spec(s) name '" << name
                      << "', which is not a factory predictor";
}

TEST(StateGates, ShadowStateBugCaughtByRoundTripOnly)
{
    // The planted bug keeps an allocation ledger outside the registered
    // state fields but clears it in reset(): reset-replay must stay
    // green while the snapshot-completeness probe fails. That split is
    // the point — it proves the round-trip gate detects state the
    // other gates structurally cannot.
    CheckPair pair = injectedBugPair(InjectedBug::TageShadowState);
    StateGateOptions options;
    options.seedBase = 1;
    options.traces = 6;
    options.conditionals = 1500;
    GateReport report =
        runStateGates(options, {{pair.name, pair.optimized}});
    ASSERT_FALSE(report.ok());
    for (const GateFailure &failure : report.failures)
        EXPECT_EQ(failure.gate, "round-trip") << failure.detail;
}

TEST(StateReader, PastEndReadPanics)
{
    EXPECT_DEATH(
        {
            predictor::state::Reader reader(
                std::span<const uint8_t>{});
            reader.u8();
        },
        "read past the end of a snapshot");
}

TEST(StateRestore, GeometryMismatchPanics)
{
    // Restoring a snapshot into a predictor of a different geometry is
    // a caller bug; the size-prefix tripwire must refuse it loudly
    // rather than silently smearing bytes across the wrong tables.
    predictor::PredictorPtr small = predictor::makePredictor("gshare:h=6");
    std::vector<uint8_t> snap = small->snapshot();
    predictor::PredictorPtr big = predictor::makePredictor("gshare:h=8");
    EXPECT_DEATH(big->restore(snap), "geometry mismatch");
}

TEST(StateBudgets, TableCoversEveryKnownPredictor)
{
    std::string doc = renderStateBudgets();
    for (const std::string &spec : predictor::knownPredictors())
        EXPECT_NE(doc.find("| " + spec + " |"), std::string::npos)
            << "STATE_BUDGETS table is missing spec '" << spec << "'";
}
