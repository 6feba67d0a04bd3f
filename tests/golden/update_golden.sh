#!/usr/bin/env bash
# Regenerate the golden snapshots under tests/golden/ (bench harnesses,
# example programs, suite fingerprints) from a built tree. Run after an
# *intentional* change to their output, review the diff, and commit the
# updated .txt files.
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

# Canonical snapshot arguments (the copra_golden_roster calls in
# tests/CMakeLists.txt).
# Small deterministic traces, cache off so nothing is read from or
# written outside the build tree.
args=(--branches 20000 --mine 20000 --no-trace-cache)

# The golden roster, shared with the ctest registrations.
mapfile -t benches < <(grep -E '^[a-z0-9_]+$' "$root/tests/golden/benches.txt")

for bench in "${benches[@]}"; do
    "$build/bench/$bench" "${args[@]}" > "$root/tests/golden/$bench.txt"
    echo "updated tests/golden/$bench.txt"
done

# The example programs, at the same small budget (the cache is off by
# default for them). Roster shared with the ctest registrations.
mapfile -t examples < <(grep -E '^[a-z0-9_]+$' "$root/tests/golden/examples.txt")
for example in "${examples[@]}"; do
    "$build/examples/$example" --branches 20000 \
        > "$root/tests/golden/$example.txt"
    echo "updated tests/golden/$example.txt"
done

# Suite fingerprints (copra_characterize) at the same small budget.
"$build/tools/copra_characterize" --all --branches 20000 \
    > "$root/tests/golden/characterize_suite.txt"
echo "updated tests/golden/characterize_suite.txt"
