#!/usr/bin/env bash
# Entry point for BENCHMARK.json's command: builds the benchmark from the
# sources of the checkout it sits in and runs it with the arguments given.
# Everything built lands in .bench_build/ at the checkout's root, the Go
# build cache included, so a run writes nothing outside the checkout and
# reads nothing outside it but the Go toolchain.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build/tmp
# go's build cache, scratch files and telemetry counters
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp" XDG_CONFIG_HOME="$root/.bench_build/config"
export GOTOOLCHAIN=local GOPROXY=off # never reach for the network
go build -C bench -o ../.bench_build/bench .
# Run on one CPU, the first this process may use: the benchmark, its
# goroutines and the barrierd it spawns then take turns instead of waking
# each other across CPUs, which on a small shared host is what does not
# repeat (bench/README.md, "Two pitfalls").
pin=()
if command -v taskset >/dev/null; then
	cpu="$(taskset -cp $$ | sed 's/.*: *//; s/[,-].*//')"
	pin=(taskset -c "$cpu")
fi
exec "${pin[@]}" .bench_build/bench "$@"
