#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files
# and the binary go to .bench_build/ and the traced runs' span files to
# .bench_out/, both under the current directory, so nothing is written
# outside the checkout. Without the repository's module next to the
# benchmark the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/modcache" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/modcache"
# The go command keeps its settings and telemetry under the user config
# directory; point it inside the checkout too.
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$bench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out "$root/.bench_out" "$@"
