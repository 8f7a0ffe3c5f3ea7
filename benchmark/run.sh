#!/usr/bin/env bash
# Builds the reference benchmark and runs it from the repository root:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything the build writes — binary, Go build cache, temporary files —
# stays in .bench_build/ at the root of the checkout, and nothing is
# fetched: the benchmark is a module of its own (benchmark/go.mod) whose
# only requirement is the repository around it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/cache" "$build/tmp" "$build/gopath" "$build/config"

export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" # the go command's own counters land here
export GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$here" && go build -o "$build/fubar-benchmark" .)
cd "$root"
exec "$build/fubar-benchmark" "$@"
