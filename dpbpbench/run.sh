#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#
#   bash dpbpbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything the build and the run write
# goes under .bench_build/ there: the Go build cache, the binary and the
# traced run's spans.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"

# Keep the toolchain's caches, temporary files and per-user state inside
# the checkout, and never let it reach the network.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

go build -C "$root/dpbpbench" -o "$out/dpbpbench" .
exec "$out/dpbpbench" "$@"
