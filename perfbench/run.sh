#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload mz-block --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. The binary, the Go build cache and Go's
# temporary files all live under .bench_build/ in that directory, so the
# benchmark reads and writes nothing outside it but the Go toolchain.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

# Build output goes to stderr so standard output carries only results.
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
