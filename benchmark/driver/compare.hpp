/**
 * @file
 * `copra_bench compare A.json... -- B.json...`: decide, per (metric,
 * workload), whether side B is better, worse, unchanged or unresolved
 * against side A, using the bounds in BENCHMARK.json.
 */

#pragma once

namespace copra::bench {

/** Entry point of the compare subcommand; returns the exit code. */
int runCompare(int argc, char **argv);

} // namespace copra::bench
