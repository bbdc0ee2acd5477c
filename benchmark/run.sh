#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): build the benchmark
# from source into .bench_build/ inside the checkout, then run it with the
# driver's arguments (--workload --seed --seconds --trace). Everything the
# Go toolchain writes — build cache, configuration — is kept under
# .bench_build/ too, so a run reads and writes only inside its checkout.
# Without the repository's source (go.mod, internal/) this exits non-zero
# without printing a result and without starting the toolchain.
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f go.mod || ! -d internal ]]; then
	echo "benchmark: no go.mod and internal/ here; run from a checkout of the repository" >&2
	exit 1
fi
build="$PWD/.bench_build"
# The go command starts a detached telemetry child that outlives it unless
# the telemetry mode is "off"; the mode is read from the configuration
# directory, which is private to this checkout. No process is left behind:
# go build waits for its compilers, and the benchmark replaces this shell.
mkdir -p "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
GOCACHE="$build/go-cache" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
XDG_CONFIG_HOME="$build/config" \
	go build -o "$build/kfac-benchmark" ./benchmark
exec "$build/kfac-benchmark" "$@"
