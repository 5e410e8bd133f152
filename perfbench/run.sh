#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
#
# Everything it writes stays under .bench_build/ in the checkout: the Go
# build cache, the binary and the databases of a run.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOPROXY=off
export GOSUMDB=off
export CGO_ENABLED=0
go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" --dir "$out" "$@"
