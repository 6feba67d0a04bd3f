#!/bin/sh
# An ablation harness must honor --metrics-out: the manifest it writes
# loads in `copra_report --summary` and records the branches it
# simulated.
#
# Usage: ablation_metrics.sh <bench-binary> <copra_report-binary>
#        [bench args...]

set -eu

BIN="$1"
REPORT="$2"
shift 2

DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

"$BIN" "$@" --metrics-out "$DIR/manifest.json" > /dev/null
if [ ! -s "$DIR/manifest.json" ]; then
    echo "no manifest written to --metrics-out"
    exit 1
fi
"$REPORT" --summary "$DIR/manifest.json" > "$DIR/summary"
branches=$(awk '$1 == "sim.run.branches" { print $2 }' "$DIR/summary")
if [ -z "$branches" ] || [ "$branches" -le 0 ]; then
    echo "manifest records no sim.run.branches:"
    cat "$DIR/summary"
    exit 1
fi
echo "ok: manifest records $branches simulated branches"
exit 0
