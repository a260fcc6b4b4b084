#!/bin/bash
# Builds the benchmark (a Go module of its own, bench/go.mod) and runs it
# from the repository root. Everything the toolchain writes (build cache,
# module cache, its config and telemetry directory) is kept under
# .bench_build in the checkout.
set -eu
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -C bench -o "$out/dqbench" .
exec "$out/dqbench" "$@"
