#!/usr/bin/env bash
# The command BENCHMARK.json names: builds the benchmark from source into
# benchmark/out/ (build cache included, so nothing is read or written
# outside the checkout) and runs it from the root of the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/benchmark/out"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local CGO_ENABLED=0
(cd "$root/benchmark" && go build -o "$out/zcbench" .)
cd "$root"
exec "$out/zcbench" -out benchmark/out "$@"
