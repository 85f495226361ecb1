#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark from source
# inside the checkout, then run it with the driver's arguments
# (--workload W --seed N --seconds S --trace 0|1). Everything the go tool
# writes — build cache, module cache, its own config — is kept under
# .bench_build/ so that nothing outside the checkout is touched.
set -euo pipefail
cd "$(dirname "$0")/.."
# Without the program there is nothing to build: fail before the go tool
# is started at all.
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: no go.mod / internal/ beside bench/: the program is not in this checkout" >&2
	exit 2
fi
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
# The go command's telemetry mode lives in a file under the user config
# dir; in a fresh config dir the first go command of the day forks a
# detached `go` child (the telemetry sidecar) that outlives it. Mode "off"
# means no child: every process this script starts is one it waits for.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/bench" ./bench
# exec: the benchmark replaces this shell, so there is no wrapper left to
# outlive it; the benchmark itself is one process (tier hosted in-process).
exec "$build/bench" "$@"
