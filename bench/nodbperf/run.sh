#!/usr/bin/env bash
# Entry point of the benchmark: builds nodbperf from this checkout and runs
# it with the given arguments. Binaries, the go build cache, generated data
# and trace.json all stay under <checkout>/.bench_build.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
out="$root/.bench_build/nodbperf"
mkdir -p "$out"
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local GOFLAGS=
go build -C "$here" -o "$out/nodbperf" .
cd "$root"
exec "$out/nodbperf" "$@"
