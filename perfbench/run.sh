#!/usr/bin/env bash
# Builds the benchmark and the two servers it launches (rankserver,
# shardserver) from this checkout's source into .bench_build/, then
# runs it with the arguments given, for example:
#
#   bash perfbench/run.sh --workload paper-topk --seed 1 --seconds 5 --trace 0
#
# Run it from the repository root. Everything it writes, the Go build
# cache included, stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/gocache" "$build/work"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config" # the go command's telemetry counters
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
go -C perfbench build -o "$build/bin/" . temporalrank/cmd/rankserver temporalrank/cmd/shardserver
exec "$build/bin/perfbench" --bin "$build/bin" --work "$build/work" "$@"
