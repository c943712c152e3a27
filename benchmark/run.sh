#!/usr/bin/env bash
# Builds the harness (its own module, benchmark/go.mod) and runs it from the
# checkout root. Everything the Go toolchain writes — build cache, temporary
# files, binaries — stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
mkdir -p "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/go-cache" GOTMPDIR="$root/.bench_build/tmp"
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$root/.bench_build/bin/benchmark" .)
cd "$root"
exec "$root/.bench_build/bin/benchmark" "$@"
