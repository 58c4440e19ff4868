#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark from source
# into .bench_build/ under the current directory (the root of a checkout)
# and runs it with the arguments given; the benchmark builds the regserve
# daemon into the same place. Every file the go tool writes — build cache,
# temp files, telemetry — is kept under .bench_build/ as well, so a run
# reads and writes only inside its checkout. Fails, printing no result,
# where the repository's sources are missing.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off
export XDG_CONFIG_HOME="$build/config"

go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
