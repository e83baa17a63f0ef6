#!/usr/bin/env bash
# BENCHMARK.json's command: build the harness from this checkout's sources
# and run it from the repository root with the arguments passed through
# (--workload NAME --seed N --seconds S --trace 0|1).
#
# Everything the build writes stays inside the checkout: the Go build cache,
# its temporary files and its telemetry counters go under .bench_build/.
# Without the repository around perf/ (no ../go.mod) the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
go build -C perf -o "$build/perf" .
exec "$build/perf" "$@"
