#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing its
# arguments through (--workload NAME --seed N --seconds S --trace 0|1).
# Run from the repository root. Build outputs, the Go build cache, the go
# command's own state, span files and CPU profiles stay under .bench_build
# in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -out .bench_build "$@"
