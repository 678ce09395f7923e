#!/usr/bin/env bash
# Builds the benchmark and cmd/advisord from source, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-w1 --seed 1 --seconds 45 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the binaries, the spans of
# traced runs, and advisord's data directories.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOENV=off CGO_ENABLED=0

(
	cd "$root/perfbench"
	go build -o "$out/perfbench" .
	go build -o "$out/advisord" dyndesign/cmd/advisord
) >&2

exec "$out/perfbench" -advisord "$out/advisord" -out "$out" "$@"
