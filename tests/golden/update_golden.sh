#!/usr/bin/env bash
# Regenerate the golden bench snapshots under tests/golden/ from a built
# tree. Run after an *intentional* change to bench output, review the
# diff, and commit the updated .txt files.
#
# Usage: tests/golden/update_golden.sh [build-dir]   (default: ./build)
set -euo pipefail

root="$(cd "$(dirname "$0")/../.." && pwd)"
build="${1:-$root/build}"
case "$build" in
    /*) ;;
    *) build="$root/$build" ;;
esac

if [[ ! -d "$build/bench" ]]; then
    echo "error: $build/bench not found (build the project first)" >&2
    exit 1
fi

# Canonical snapshot arguments. Small deterministic traces, cache off so
# nothing is read from or written outside the build tree. Keep in sync
# with the golden test registrations in tests/CMakeLists.txt.
args=(--branches 20000 --mine 20000 --no-trace-cache)

benches=(
    table1_benchmarks
    fig4_selective_history
    fig5_history_length
    fig7_gshare_pas_static
    fig9_gshare_vs_pas
    fig10_modern_roster
    table3_pas_loop
)

for bench in "${benches[@]}"; do
    "$build/bench/$bench" "${args[@]}" > "$root/tests/golden/$bench.txt"
    echo "updated tests/golden/$bench.txt"
done

# Suite fingerprints (copra_characterize) at the same small budget.
"$build/tools/copra_characterize" --all --branches 20000 \
    > "$root/tests/golden/characterize_suite.txt"
echo "updated tests/golden/characterize_suite.txt"
