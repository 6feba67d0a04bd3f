#!/usr/bin/env bash
# A bench harness's stdout must be byte-identical whether the suite
# runs serially (--threads 1), sharded across an odd worker count, or
# sized through the COPRA_THREADS environment knob. Timing goes to
# stderr by design, so any stdout drift is a determinism regression in
# the parallel engine.
#
# Usage: threads_identical.sh <bench-binary>... -- [bench args...]
#        (every binary runs with the same bench args)

set -eu

bins=()
while [[ $# -gt 0 && "$1" != "--" ]]; do
    bins+=("$1")
    shift
done
if [[ $# -gt 0 ]]; then
    shift
fi
if [[ ${#bins[@]} -eq 0 ]]; then
    echo "usage: threads_identical.sh <bench-binary>... -- [bench args...]" >&2
    exit 2
fi

OUT_SERIAL=$(mktemp)
OUT_SHARDED=$(mktemp)
OUT_ENV=$(mktemp)
trap 'rm -f "$OUT_SERIAL" "$OUT_SHARDED" "$OUT_ENV"' EXIT

for BIN in "${bins[@]}"; do
    "$BIN" --threads 1 "$@" > "$OUT_SERIAL" 2>/dev/null
    "$BIN" --threads 7 "$@" > "$OUT_SHARDED" 2>/dev/null
    COPRA_THREADS=13 "$BIN" --threads 0 "$@" > "$OUT_ENV" 2>/dev/null

    if ! cmp -s "$OUT_SERIAL" "$OUT_SHARDED"; then
        echo "$BIN: stdout differs between --threads 1 and --threads 7:"
        diff "$OUT_SERIAL" "$OUT_SHARDED" || true
        exit 1
    fi
    if ! cmp -s "$OUT_SERIAL" "$OUT_ENV"; then
        echo "$BIN: stdout differs between --threads 1 and COPRA_THREADS=13:"
        diff "$OUT_SERIAL" "$OUT_ENV" || true
        exit 1
    fi
    echo "$(basename "$BIN"): stdout byte-identical across serial," \
        "sharded, and env-sized runs"
done
exit 0
