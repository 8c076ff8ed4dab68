#!/usr/bin/env bash
# Builds fpbench from this checkout's source and runs it with the given
# flags. Run from the root of a checkout, for example
#
#   bash cmd/fpbench/run.sh --workload campaign --seed 7 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0

(cd "$root/cmd/fpbench" && go build -o "$build/fpbench" .)
exec "$build/fpbench" "$@"
