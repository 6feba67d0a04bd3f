/**
 * @file
 * The static catalog of every copra telemetry instrument.
 *
 * All instruments are registered eagerly, in one place, so the
 * registry is complete no matter which code paths a given binary
 * exercises — `copra_report --doc-registry` must see the whole catalog
 * even though copra_report never simulates a branch. Adding an
 * instrument means adding one entry to buildCatalog() in
 * instruments.cc, one Ids field here, and regenerating docs/METRICS.md
 * (the metrics_doc_drift ctest gate will insist).
 */

#pragma once

#include <vector>

#include "obs/registry.hpp"

namespace copra::obs {

/** Dense ids of every cataloged instrument, grouped by subsystem. */
struct Ids
{
    // sim: the trace-driven driver (src/sim/driver.cc).
    InstrumentId simRunBranches = 0;
    InstrumentId simRunMispredicts = 0;

    // predictor: modern-roster internals (src/predictor/tage.cc,
    // perceptron.cc).
    InstrumentId tageAllocations = 0;
    InstrumentId perceptronThresholdAdapts = 0;

    // core: mispredict taxonomy (src/core/mispredict_taxonomy.cc).
    InstrumentId simTaxonomyCold = 0;
    InstrumentId simTaxonomyInterference = 0;
    InstrumentId simTaxonomyTraining = 0;
    InstrumentId simTaxonomyNoise = 0;

    // core: hard-to-predict branch analysis (src/core/h2p.cc).
    InstrumentId h2pCount = 0;

    // core: per-phase experiment timing (src/core/experiments.cc).
    InstrumentId simPhaseTraceSeconds = 0;
    InstrumentId simPhaseTraceCpuSeconds = 0;
    InstrumentId simPhasePredictorSeconds = 0;
    InstrumentId simPhasePredictorCpuSeconds = 0;
    InstrumentId simPhaseOracleSeconds = 0;
    InstrumentId simPhaseOracleCpuSeconds = 0;

    // core: selective-oracle phases (src/core/oracle.cc).
    InstrumentId simPhaseOracleMineCpuSeconds = 0;
    InstrumentId simPhaseOracleRecordCpuSeconds = 0;
    InstrumentId simPhaseOracleSelectCpuSeconds = 0;
    InstrumentId oracleWindows = 0;

    // core: the per-address class engine (src/core/pa_class.cc).
    InstrumentId simPhasePaClassifierSeconds = 0;
    InstrumentId simPhasePaClassifierCpuSeconds = 0;

    // core: workload fingerprints (src/core/characterize.cc).
    InstrumentId simPhaseCharacterizeSeconds = 0;
    InstrumentId simPhaseCharacterizeCpuSeconds = 0;

    // util: the thread pool (src/util/thread_pool.cc, via hooks).
    InstrumentId poolTaskQueued = 0;
    InstrumentId poolTaskExecuted = 0;
    InstrumentId poolQueueDepthHighWater = 0;
    InstrumentId poolWorkerBusyMicros = 0;
    InstrumentId poolTaskSeconds = 0;
    InstrumentId poolWorkerCount = 0;

    // trace: parallel trace generation (src/workload/program.cc).
    InstrumentId traceGenChunks = 0;
    InstrumentId traceGenConditionals = 0;

    // trace: the on-disk trace cache (src/trace/trace_cache.cc).
    InstrumentId traceCacheHit = 0;
    InstrumentId traceCacheMiss = 0;
    InstrumentId traceCacheEvict = 0;
    InstrumentId traceCacheReadBytes = 0;
    InstrumentId traceCacheWriteBytes = 0;
    InstrumentId traceCacheEntryBytes = 0;

    // trace: foreign-trace ingestion (src/trace/ingest.cc via
    // tools/copra_ingest).
    InstrumentId traceIngestRecords = 0;
    InstrumentId traceIngestConditionals = 0;
    InstrumentId traceIngestNormalized = 0;
    InstrumentId traceIngestReordered = 0;
    InstrumentId traceIngestWarnings = 0;

    // check: the differential harness (src/check/differential.cc).
    InstrumentId checkDiffTraces = 0;
    InstrumentId checkDiffComparisons = 0;
    InstrumentId checkDiffMismatches = 0;
    InstrumentId checkDiffShrinkSteps = 0;

    // bench: the suite fan-out (bench/bench_common.hpp).
    InstrumentId benchSuiteWallSeconds = 0;
};

/** The full instrument catalog, in documentation order. */
const std::vector<InstrumentDesc> &instrumentCatalog();

/** Ids matching instrumentCatalog() positions. */
const Ids &ids();

} // namespace copra::obs
