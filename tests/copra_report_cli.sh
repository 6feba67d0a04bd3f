#!/bin/sh
# copra_report's CLI contract, on crafted manifests: perf_base.json
# (100M branches/s) and perf_slow.json (10M branches/s, a 90%
# throughput regression against it); perf_oracle_base.json and
# perf_oracle_slow.json add the selective oracle's phase CPU times
# (1.0 s and 2.0 s summed, at equal throughput); perf_pa_base.json and
# perf_pa_slow.json record only the PA classifier's CPU time (0.5 s and
# 1.0 s, no throughput, as fig6 does); perf_characterize_base.json and
# perf_characterize_slow.json record only the fingerprints' CPU time
# (0.8 s and 1.6 s, no throughput, as copra_characterize does).
#   - perf-gate exits 0 within the bound, 1 beyond it, and 1 for a
#     manifest that records no sim.run.branches;
#   - every quantity the baseline records is gated by the same bound:
#     the oracle phases' summed CPU time too when it carries them, and
#     throughput alone when it does not;
#   - a manifest with the oracle phases and no throughput (fig5) gates
#     its oracle CPU time alone; one with neither, or a current manifest
#     lacking a quantity its baseline records, exits 1;
#   - a --max-regress or --threshold that is not a whole number in
#     [0, 1) ("15%", "abc", "1") is a usage error, exit 2 — never a
#     silently different bound.
#
# Usage: copra_report_cli.sh <copra_report-binary> <tests/data dir>

set -u

BIN="$1"
DATA="$2"
BASE="$DATA/perf_base.json"
SLOW="$DATA/perf_slow.json"
ORACLE_BASE="$DATA/perf_oracle_base.json"
ORACLE_SLOW="$DATA/perf_oracle_slow.json"
PA_BASE="$DATA/perf_pa_base.json"
PA_SLOW="$DATA/perf_pa_slow.json"
CHAR_BASE="$DATA/perf_characterize_base.json"
CHAR_SLOW="$DATA/perf_characterize_slow.json"

DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT
grep -v '"sim.run.branches"' "$BASE" > "$DIR/no_branches.json"
grep -v '"sim.run.branches"' "$ORACLE_BASE" > "$DIR/oracle_only_base.json"
grep -v '"sim.run.branches"' "$ORACLE_SLOW" > "$DIR/oracle_only_slow.json"

failures=0

# expect <status> <description> <copra_report args...>
expect() {
    want="$1"
    what="$2"
    shift 2
    "$BIN" "$@" > "$DIR/out" 2>&1
    got=$?
    if [ "$got" -ne "$want" ]; then
        echo "FAIL: $what: exit $got, want $want"
        sed 's/^/  | /' "$DIR/out"
        failures=$((failures + 1))
    fi
}

expect 0 "no regression" perf-gate "$BASE" --baseline "$BASE"
expect 0 "speed-up" perf-gate "$BASE" --baseline "$SLOW" --max-regress 0.15
expect 0 "90% regression within a 0.95 bound" \
    perf-gate "$SLOW" --baseline "$BASE" --max-regress 0.95
expect 1 "90% regression beyond the default bound" \
    perf-gate "$SLOW" --baseline "$BASE"
expect 1 "90% regression beyond 0.15" \
    perf-gate "$SLOW" --baseline "$BASE" --max-regress 0.15
expect 2 "percent-suffixed bound" \
    perf-gate "$SLOW" --baseline "$BASE" --max-regress 15%
expect 2 "non-numeric bound" \
    perf-gate "$SLOW" --baseline "$BASE" --max-regress abc
expect 2 "bound of 1" perf-gate "$SLOW" --baseline "$BASE" --max-regress 1
expect 2 "negative bound" \
    perf-gate "$SLOW" --baseline "$BASE" --max-regress -0.1
expect 1 "manifest without sim.run.branches" perf-gate "$DIR/no_branches.json"
expect 1 "baseline without sim.run.branches" \
    perf-gate "$BASE" --baseline "$DIR/no_branches.json"
expect 0 "oracle unchanged" \
    perf-gate "$ORACLE_BASE" --baseline "$ORACLE_BASE"
expect 0 "oracle speed-up" \
    perf-gate "$ORACLE_BASE" --baseline "$ORACLE_SLOW"
expect 1 "oracle CPU doubled beyond the default bound" \
    perf-gate "$ORACLE_SLOW" --baseline "$ORACLE_BASE"
expect 0 "oracle CPU doubled within a 0.6 bound" \
    perf-gate "$ORACLE_SLOW" --baseline "$ORACLE_BASE" --max-regress 0.6
expect 0 "baseline without oracle phases gates throughput only" \
    perf-gate "$ORACLE_SLOW" --baseline "$BASE"
expect 0 "oracle-only manifest unchanged" \
    perf-gate "$DIR/oracle_only_base.json" \
    --baseline "$DIR/oracle_only_base.json"
expect 1 "oracle-only manifest with its CPU doubled" \
    perf-gate "$DIR/oracle_only_slow.json" \
    --baseline "$DIR/oracle_only_base.json"
expect 1 "oracle-only manifest against a throughput-only baseline" \
    perf-gate "$DIR/oracle_only_base.json" --baseline "$BASE"
expect 1 "oracle-only manifest against a baseline with both" \
    perf-gate "$DIR/oracle_only_base.json" --baseline "$ORACLE_BASE"
expect 1 "throughput-only manifest against a baseline with both" \
    perf-gate "$BASE" --baseline "$ORACLE_BASE"
expect 0 "classifier unchanged" perf-gate "$PA_BASE" --baseline "$PA_BASE"
expect 0 "classifier speed-up" perf-gate "$PA_BASE" --baseline "$PA_SLOW"
expect 1 "classifier CPU doubled beyond the default bound" \
    perf-gate "$PA_SLOW" --baseline "$PA_BASE"
expect 0 "classifier CPU doubled within a 0.6 bound" \
    perf-gate "$PA_SLOW" --baseline "$PA_BASE" --max-regress 0.6
expect 1 "classifier-only manifest against an oracle baseline" \
    perf-gate "$PA_BASE" --baseline "$ORACLE_BASE"
expect 1 "oracle manifest against a classifier baseline" \
    perf-gate "$ORACLE_BASE" --baseline "$PA_BASE"
expect 0 "characterize unchanged" \
    perf-gate "$CHAR_BASE" --baseline "$CHAR_BASE"
expect 0 "characterize speed-up" \
    perf-gate "$CHAR_BASE" --baseline "$CHAR_SLOW"
expect 1 "characterize CPU doubled beyond the default bound" \
    perf-gate "$CHAR_SLOW" --baseline "$CHAR_BASE"
expect 0 "characterize CPU doubled within a 0.6 bound" \
    perf-gate "$CHAR_SLOW" --baseline "$CHAR_BASE" --max-regress 0.6
expect 1 "characterize-only manifest against a classifier baseline" \
    perf-gate "$CHAR_BASE" --baseline "$PA_BASE"
expect 1 "classifier manifest against a characterize baseline" \
    perf-gate "$PA_BASE" --baseline "$CHAR_BASE"
expect 0 "diff with a valid threshold" diff "$BASE" "$SLOW" --threshold 0.05
expect 2 "diff with a percent threshold" diff "$BASE" "$SLOW" --threshold 5%
expect 2 "diff with a non-numeric threshold" \
    diff "$BASE" "$SLOW" --threshold abc

if [ "$failures" -ne 0 ]; then
    echo "$failures copra_report CLI case(s) failed"
    exit 1
fi
echo "ok: copra_report CLI exit codes"
exit 0
