#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the given
# arguments. Everything the go tool writes (build cache, module cache,
# telemetry) goes under .bench_build in the checkout, so a run reads and
# writes nothing outside it.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out=$root/.bench_build
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/bench" -o "$out/zaatar-bench" .
cd "$root"
exec "$out/zaatar-bench" "$@"
