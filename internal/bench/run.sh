#!/usr/bin/env bash
# The command BENCHMARK.json names: build the harness from source inside the
# checkout, then run it with the driver's arguments
# (--workload <name> --seed <n> --seconds <s> --trace <0|1>).
#
# Everything the build and the run write — the Go build cache, the binary,
# the run's data directories — stays under <checkout>/.bench_build. In a
# directory that holds only the benchmark's own files the build fails (the
# module it measures is missing) and so does this script.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

(cd "$here" && go build -o "$build/tklus-e2ebench" ./cmd/tklus-e2ebench)
exec "$build/tklus-e2ebench" "$@"
