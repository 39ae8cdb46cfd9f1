#!/bin/sh
# Full tier-1 verification gate, in dependency order: vet, build, the
# static gates (gofmt + chipvqa-lint via scripts/lint.sh), the test
# suite, a one-iteration smoke of every benchmark, and the race-enabled
# test suite. Everything that merges must pass this.
#
# Usage: scripts/verify.sh
set -e
cd "$(dirname "$0")/.."
echo "== go vet"
go vet ./...
echo "== go build"
go build ./...
# benchmark/ is its own module, so the root build stops short of it;
# vet it here so a break in the eval API it compiles against fails
# fast instead of after the race run.
echo "== benchmark module: go vet"
(cd benchmark && go vet ./...)
echo "== lint (gofmt + chipvqa-lint)"
sh scripts/lint.sh
echo "== go test"
go test ./...
# One iteration of every go test benchmark: catches a bench that panics
# or b.Fatals, and runs the byte-identity assertion inside
# BenchmarkTableIIGridSharded, which no plain test executes.
echo "== go test -bench smoke"
go test -run '^$' -bench=. -benchtime=1x ./...
echo "== go test -race"
go test -race ./...
echo "== benchmark module: go test -race"
(cd benchmark && go test -race ./...)
echo "verify: all tier-1 gates passed"
