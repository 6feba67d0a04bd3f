#!/usr/bin/env bash
# A harness run against a warm trace cache must print what a run that
# generates its traces prints. The harness runs twice against one fresh
# cache directory: the first run generates and stores every trace, the
# second loads every one back through trace::loadBinary. Both stdouts
# must equal the golden snapshot byte for byte, and the --metrics-summary
# counters must show that the first run missed and the second hit.
#
# Usage: warm_cache.sh <bench-binary> <golden-file> [bench args...]

set -eu

if [[ $# -lt 2 ]]; then
    echo "usage: warm_cache.sh <bench-binary> <golden-file> [bench args...]" >&2
    exit 2
fi
BIN=$1
GOLDEN=$2
shift 2

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
export COPRA_CACHE_DIR="$WORK/cache"

for run in cold warm; do
    "$BIN" "$@" --metrics-summary > "$WORK/$run.out" 2> "$WORK/$run.err"
    if ! cmp -s "$GOLDEN" "$WORK/$run.out"; then
        echo "$(basename "$BIN"): $run-cache stdout differs from $GOLDEN:"
        diff "$GOLDEN" "$WORK/$run.out" || true
        exit 1
    fi
done

if ! grep -q '^ *trace\.cache\.miss ' "$WORK/cold.err"; then
    echo "the cold run recorded no trace.cache.miss: the cache was bypassed"
    exit 1
fi
if ! grep -q '^ *trace\.cache\.hit ' "$WORK/warm.err" ||
    grep -q '^ *trace\.cache\.miss ' "$WORK/warm.err"; then
    echo "the warm run did not load every trace from the cache:"
    grep 'trace\.cache\.' "$WORK/warm.err" || true
    exit 1
fi
echo "$(basename "$BIN"): cold and warm trace-cache runs match $GOLDEN"
