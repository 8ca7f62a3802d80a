#!/usr/bin/env bash
# Builds cmd/stad and the benchmark from this checkout into .bench_build and
# runs the benchmark from the repository root, forwarding its flags:
#
#   bash stadbench/run.sh --workload sweep-full --seed 1 --seconds 15 --trace 0
#
# Every file the build and the run write stays inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/go-cache GOPATH=$out/go-path XDG_CONFIG_HOME=$out/config TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go build -o "$out/stad" ./cmd/stad
(cd stadbench && go build -o "$out/stadbench" .)
exec "$out/stadbench" -stad "$out/stad" -root "$root" "$@"
