#!/usr/bin/env bash
# Builds the benchmark from the source of this checkout and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload analyze-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays inside the checkout, under
# .bench_build: the Go build cache, the binary and the traced runs'
# Chrome traces. Build output goes to standard error, so the last line of
# standard output is the benchmark's JSON result.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false
export GOTELEMETRY=off

# Rebuild only when a source file is newer than the binary: every run of
# a checkout after the first skips the toolchain's own staleness check.
bin="$build/perfbench"
if [ ! -x "$bin" ] || [ -n "$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
	if ! (cd "$bench" && go build -o "$bin" .) >&2; then
		echo "perfbench: build failed (the benchmark needs the module source next to its directory)" >&2
		exit 3
	fi
fi
exec "$bin" --out "$build/traces" "$@"
