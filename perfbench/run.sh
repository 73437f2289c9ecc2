#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. From the
# repository root:
#
#   bash perfbench/run.sh --workload kernel-train --seed 1 --seconds 10 --trace 0
#
# Every build artifact, cache and temporary file stays under .bench_build
# in the repository root. The last line of standard output is the JSON
# result; the exit status is nonzero when the build fails or a correctness
# check does.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS= GOPROXY=off GOSUMDB=off

(cd "$here" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" --out "$build" "$@"
