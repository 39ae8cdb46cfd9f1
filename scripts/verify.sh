#!/bin/sh
# Full tier-1 verification gate, in dependency order: vet, build, the
# static gates (gofmt + chipvqa-lint via scripts/lint.sh), the test
# suite, and the race-enabled test suite. Everything that merges must
# pass this; bench.sh runs it as its preflight so no perf snapshot is
# ever recorded from a tree that fails the gate.
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
echo "== go test -race"
go test -race ./...
echo "== benchmark module: go test -race"
(cd benchmark && go test -race ./...)
echo "verify: all tier-1 gates passed"
