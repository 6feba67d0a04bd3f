#!/usr/bin/env bash
# Build copra_bench from this checkout (Release, into build-bench/) and
# run it from the repository root.
#
#   benchmark/run.sh                   all four workloads at seed 0; prints
#                                      "<workload> <metric> <value> <unit>"
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                      one run; the last stdout line is JSON
#   benchmark/run.sh --smoke           20k-branch pass over every workload
#   benchmark/run.sh --write-expected  regenerate benchmark/expected/
#   benchmark/run.sh compare A.json... -- B.json...
#
# Exits non-zero when the tree cannot be built or any operation fails.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f CMakeLists.txt || ! -f src/CMakeLists.txt ]]; then
    echo "run.sh: no copra source tree next to benchmark/ in $root" >&2
    exit 2
fi

build=build-bench
if [[ ! -f $build/CMakeCache.txt ]]; then
    cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target copra_bench -j 4 >&2
bench="$build/copra_bench"

if [[ $# -gt 0 ]]; then
    exec "$bench" "$@"
fi

status=0
for workload in twolevel oracle modern cold_characterize; do
    out="$("$bench" --workload "$workload")" || status=1
    # Drop the machine-readable result line; keep the metric lines.
    grep -v '^{' <<<"$out" || true
done
exit "$status"
