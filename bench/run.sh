#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Keeps everything the toolchain, repcutd
# and the benchmark write inside the checkout (.bench_build/), builds the
# driver, and hands over to it. Arguments are passed through; see main.go.
set -euo pipefail
cd "$(dirname "$0")/.."
out=$PWD/.bench_build
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath TMPDIR=$out/tmp
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go build -C bench -o "$out/bin/bench" .
exec "$out/bin/bench" "$@"
