#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run it from the root of the repository:
#
#   bash benchmark/run.sh --workload table2 --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (the Go build cache, module state, temporary
# files and the binary) goes under .bench_build/ in the current directory,
# and the Go toolchain is never asked to download anything. Outside a
# full checkout (no go.mod above benchmark/) the build fails and so does
# this script, without printing a result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOENV=off \
    XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
    GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
go -C benchmark build -o "$out/chipvqa-benchmark" .
exec "$out/chipvqa-benchmark" "$@"
