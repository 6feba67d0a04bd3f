#include "core/experiments.hpp"

#include "obs/instruments.hpp"
#include "obs/registry.hpp"
#include "predictor/factory.hpp"
#include "sim/driver.hpp"
#include "trace/trace_cache.hpp"
#include "workload/profiles.hpp"

namespace copra::core {

// Each phase is timed by an obs::PhaseTimer into the sim.phase.*
// histograms of the run manifest; durations never reach simulation
// results or stdout (DESIGN.md §7).

OracleConfig
oracleConfig(const ExperimentConfig &config)
{
    OracleConfig oc;
    oc.historyDepth = config.historyDepth;
    oc.candidatePool = config.candidatePool;
    oc.maxSelect = 3;
    oc.mineConditionals = config.mineConditionals;
    return oc;
}

trace::Trace
makeExperimentTrace(const std::string &name, const ExperimentConfig &config)
{
    auto generate = [&]() {
        return workload::makeBenchmarkTrace(name, config.branches,
                                            config.seed);
    };
    if (!trace::traceCacheEnabled())
        return generate();
    trace::TraceCacheKey key{name, config.branches, config.seed};
    return trace::globalTraceCache().loadOrGenerate(key, generate);
}

BenchmarkExperiment::BenchmarkExperiment(const std::string &name,
                                         const ExperimentConfig &config)
    : name_(name), config_(config)
{
    obs::PhaseTimer guard(obs::ids().simPhaseTraceSeconds,
                          obs::ids().simPhaseTraceCpuSeconds);
    trace_ = makeExperimentTrace(name, config);
}

BenchmarkExperiment::BenchmarkExperiment(trace::Trace trace,
                                         const ExperimentConfig &config)
    : name_(trace.name()), config_(config), trace_(std::move(trace))
{
}

const trace::TraceStats &
BenchmarkExperiment::stats()
{
    if (!stats_)
        stats_.emplace(trace_);
    return *stats_;
}

const sim::Ledger &
BenchmarkExperiment::idealStaticLedgerRef()
{
    if (!idealStatic_)
        idealStatic_ = idealStaticLedger(ledgerFor(kGshareSpec));
    return *idealStatic_;
}

const sim::Ledger &
BenchmarkExperiment::ledgerFor(const std::string &spec)
{
    auto it = specLedgers_.find(spec);
    if (it == specLedgers_.end()) {
        obs::PhaseTimer guard(obs::ids().simPhasePredictorSeconds,
                              obs::ids().simPhasePredictorCpuSeconds);
        predictor::PredictorPtr pred = predictor::makePredictor(spec);
        sim::Ledger ledger;
        sim::run(trace_, *pred, &ledger);
        it = specLedgers_.emplace(spec, std::move(ledger)).first;
    }
    return it->second;
}

const SelectiveOracle &
BenchmarkExperiment::oracle()
{
    if (!oracle_) {
        obs::PhaseTimer guard(obs::ids().simPhaseOracleSeconds,
                              obs::ids().simPhaseOracleCpuSeconds);
        oracle_ = std::make_unique<SelectiveOracle>(trace_,
                                                    oracleConfig(config_));
    }
    return *oracle_;
}

const PaClassifier &
BenchmarkExperiment::classifier()
{
    // PaClassifier times itself (sim.phase.pa_classifier.*).
    if (!classifier_)
        classifier_ = std::make_unique<PaClassifier>(trace_);
    return *classifier_;
}

Fig4Row
BenchmarkExperiment::fig4Row()
{
    Fig4Row row;
    row.name = name_;
    const SelectiveOracle &orc = oracle();
    row.selective1 = orc.toLedger(1).accuracyPercent();
    row.selective2 = orc.toLedger(2).accuracyPercent();
    row.selective3 = orc.toLedger(3).accuracyPercent();
    row.ifGshare = ledgerFor(kIfGshareSpec).accuracyPercent();
    row.gshare = ledgerFor(kGshareSpec).accuracyPercent();
    return row;
}

Table2Row
BenchmarkExperiment::table2Row()
{
    Table2Row row;
    row.name = name_;
    sim::Ledger selective1 = oracle().toLedger(1);
    const sim::Ledger &gshare = ledgerFor(kGshareSpec);
    const sim::Ledger &if_gshare = ledgerFor(kIfGshareSpec);
    row.gshare = gshare.accuracyPercent();
    row.gshareWithCorr = sim::bestOfAccuracyPercent(gshare, selective1);
    row.ifGshare = if_gshare.accuracyPercent();
    row.ifGshareWithCorr = sim::bestOfAccuracyPercent(if_gshare, selective1);
    return row;
}

Fig6Row
BenchmarkExperiment::fig6Row()
{
    Fig6Row row;
    row.name = name_;
    row.fractions = classifier().classFractions();
    row.staticBiasedFraction = classifier().staticBucketBiasFraction();
    return row;
}

Table3Row
BenchmarkExperiment::table3Row()
{
    Table3Row row;
    row.name = name_;
    const PaClassifier &cls = classifier();
    sim::Ledger if_pas = cls.ifPasLedger();
    const sim::Ledger &pas = ledgerFor(kPasSpec);
    row.pas = pas.accuracyPercent();
    row.pasWithLoop = cls.loopEnhancedAccuracyPercent(pas);
    row.ifPas = if_pas.accuracyPercent();
    row.ifPasWithLoop = cls.loopEnhancedAccuracyPercent(if_pas);
    return row;
}

BestOfSplit
BenchmarkExperiment::fig7Split()
{
    return bestOfSplit(ledgerFor(kGshareSpec), ledgerFor(kPasSpec),
                       idealStaticLedgerRef());
}

BestOfSplit
BenchmarkExperiment::fig8Split()
{
    sim::Ledger global =
        maxLedger(ledgerFor(kIfGshareSpec), oracle().toLedger(3));
    sim::Ledger per_address = classifier().bestPaLedger();
    return bestOfSplit(global, per_address, idealStaticLedgerRef());
}

WeightedPercentiles
BenchmarkExperiment::fig9Percentiles()
{
    return accuracyDifference(ledgerFor(kGshareSpec), ledgerFor(kPasSpec));
}

std::vector<std::pair<unsigned, double>>
fig5Series(const trace::Trace &trace, const ExperimentConfig &config,
           const std::vector<unsigned> &depths)
{
    std::vector<std::pair<unsigned, double>> series;
    series.reserve(depths.size());
    for (unsigned depth : depths) {
        OracleConfig oc = oracleConfig(config);
        oc.historyDepth = depth;
        SelectiveOracle oracle(trace, oc);
        series.emplace_back(depth, oracle.toLedger(3).accuracyPercent());
    }
    return series;
}

} // namespace copra::core
