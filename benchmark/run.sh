#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds and runs the benchmark with every
# Go cache and temp file kept inside the checkout (.bench_build/), so a run
# reads and writes nothing outside it. Arguments pass through to the program.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off
exec go run . "$@"
