#!/bin/sh
# Drift gate for a generated doc: run the generator, compare its stdout
# byte for byte with the committed file, and on drift print how to
# regenerate it.
#
#   tests/doc_drift.sh <committed> -- <generator...>
#
# e.g. tests/doc_drift.sh docs/METRICS.md -- build/tools/copra_report --doc-registry

set -eu

if [ $# -lt 3 ] || [ "$2" != "--" ]; then
    echo "usage: $0 <committed> -- <generator...>" >&2
    exit 2
fi
committed=$1
shift 2

out=$(mktemp)
trap 'rm -f "$out"' EXIT
if ! "$@" > "$out"; then
    echo "doc_drift: generator failed: $*" >&2
    exit 1
fi
if cmp -s "$out" "$committed"; then
    echo "$committed is up to date"
    exit 0
fi
echo "$committed is stale (or unreadable); regenerate with" >&2
echo "  $* > $committed" >&2
exit 1
