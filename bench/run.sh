#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the repository root) and runs it with the given arguments:
#
#   bash bench/run.sh --workload gnp-1m --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -compare before.txt after.txt
#
# Every Go cache and config directory points into .bench_build, so the
# build reads and writes nothing outside the checkout and never touches
# the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" \
	GOMODCACHE="$out/gomodcache" \
	GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local \
	GOPROXY=off \
	GOFLAGS= \
	CGO_ENABLED=0

(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
