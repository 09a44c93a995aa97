#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Everything it
# writes — the Go build cache, the binary, the databases — goes under
# .bench_build at the root of the checkout.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/benchmark" .) >&2
exec "$build/benchmark" -dir "$build/data" "$@"
