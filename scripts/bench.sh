#!/bin/sh
# Record the repo's perf trajectory: time the evaluation engine
# (Table II serial vs parallel, the cached resolution sweep, the raster
# kernel, bootstrap CI) and write a BENCH_N.json snapshot at the repo
# root.
#
# Usage: scripts/bench.sh [N]   (default N=1 -> BENCH_1.json)
set -e
cd "$(dirname "$0")/.."
N="${1:-1}"
# Preflight: the full tier-1 gate must be clean — a snapshot taken
# from a tree that fails vet/lint/tests would record numbers no one
# can reproduce.
sh scripts/verify.sh
# Smoke-run every benchmark once first: a benchmark that panics or
# b.Fatals must fail the script before a snapshot is written.
go test -run '^$' -bench=. -benchtime=1x ./...
# Smoke the scale path end to end: pack a 10k-question fold to the
# binary codec (with CRC + per-question check on reload), then stream a
# budgeted evaluation over it. Failures here mean the codec or the
# memory envelope broke, which the snapshot's scale section would
# otherwise record as garbage numbers.
SMOKE="$(mktemp -t chipvqa-smoke.XXXXXX.cvqb)"
trap 'rm -f "$SMOKE"' EXIT
go run ./cmd/chipvqa pack -seed smoke -n 2000 -shard 512 -o "$SMOKE" -check
go run ./cmd/chipvqa extended -packed "$SMOKE" -eval -stream \
    -downsample 8 > /dev/null
# Smoke one adaptive evaluation end to end (calibration grid + IRT
# tournament) so the snapshot's adaptive section never records a run
# that the CLI path itself cannot complete.
go run ./cmd/chipvqa adaptive -seed smoke -n 4 > /dev/null
go run ./cmd/chipvqa bench -o "BENCH_${N}.json"
# Post-run report: diff against the previous snapshot when one exists.
# Informational only — single-shot snapshot noise should not fail a
# recording run; scripts/benchdiff.sh is the gating entry point.
PREV="BENCH_$((N - 1)).json"
if [ -f "$PREV" ]; then
    sh scripts/benchdiff.sh "$PREV" "BENCH_${N}.json" ||
        echo "bench.sh: regressions vs $PREV reported above (informational)"
fi
