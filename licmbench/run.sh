#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash licmbench/run.sh --workload scan-wide --seed 7 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache) stays under
# .bench_build in the current directory. The build needs no network:
# the benchmark module depends only on the repository's own module.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
export GOCACHE="$build/gocache" GOPATH="$build/gopath"

dir="$(cd "$(dirname "$0")" && pwd)"
(cd "$dir" && go build -o "$build/licmbench" .) >&2
exec "$build/licmbench" "$@"
