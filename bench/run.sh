#!/usr/bin/env bash
# The BENCHMARK.json command: build cmd/nestbench from source and run it
# with the arguments given (--workload W --seed N --seconds S --trace 0|1).
#
# Everything the build and the run write stays inside the checkout, under
# bench/out: the Go build cache, the module cache, the compiler's temp
# directory and the nestbench binary in bench/out/build, and beside it
# what nestbench itself writes (the built nestctl and nestserved, their
# work directories, traces). The first run in a checkout pays for a cold
# build cache; later runs find it warm.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

build="$PWD/bench/out/build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly

go build -o "$build/nestbench" ./cmd/nestbench
exec "$build/nestbench" "$@"
