#!/usr/bin/env bash
# Builds the stack benchmark from the checkout it sits in and runs it with
# the given arguments. Run it from the repository root:
#
#   bash stackbench/run.sh --workload jobjar --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the Go build cache, the binary, scratch directories and
# result files.
set -euo pipefail

if [[ ! -f go.mod || ! -f stackbench/go.mod ]]; then
	echo "stackbench: run from the repository root (go.mod and stackbench/go.mod not found)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" HOME="$build/home" XDG_CONFIG_HOME="$build/home" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

(cd stackbench && go build -o "$build/stackbench" .)
exec "$build/stackbench" "$@"
