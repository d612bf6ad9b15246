#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds cohana-loadtest from the checkout
# it is run in and executes it, keeping the Go tool's caches and temporary
# files, like everything else the benchmark writes, under .bench_build in that
# checkout.
set -euo pipefail
if [ ! -f go.mod ]; then
	echo "run.sh: run from the root of a checkout (no go.mod here)" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -o "$build/cohana-loadtest" ./cmd/cohana-loadtest
exec "$build/cohana-loadtest" -work "$build" "$@"
