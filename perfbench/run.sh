#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload serve_warm --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build and run artifact (the Go build
# cache, the binary, stores, span dumps) stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root; the program's sources are not here" >&2
	exit 2
fi

root=$PWD
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
# The pure-Go build needs neither a C toolchain nor a module download.
export GOTOOLCHAIN=local GOFLAGS=-mod=mod CGO_ENABLED=0
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
