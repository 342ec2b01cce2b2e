#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#	bash benchmark/run.sh --workload select_cold --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache, the binary) goes
# under .bench_build/ in the checkout, so a run touches nothing outside
# it and needs no writable home directory.
set -euo pipefail
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod here: run it from the root of a checkout that holds the program" >&2
	exit 1
fi
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
# With a fresh config directory the go command would start a detached
# telemetry child that outlives it; mode "off" keeps it from starting,
# so no process is left behind when this script returns.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
