#!/usr/bin/env bash
# Builds the LEAPS benchmark from source and runs one workload:
#
#   bash benchmark/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, the binary, the
# registry stores and the span dumps all land in .bench_build/ there, so
# nothing is read or written outside the checkout besides the toolchain.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

(cd "$root/benchmark" && go build -trimpath -o "$build/leaps-benchmark" .)
exec "$build/leaps-benchmark" -workdir "$build/work" "$@"
