#!/usr/bin/env bash
# Builds fairallocd and the benchmark from the checkout's sources into
# .bench_build, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload churn-sparse --seed 1 --seconds 50 --trace 0
#
# Run it from the repository root. Every build product and scratch file
# stays under .bench_build (CARGO_TARGET_DIR names it when set).
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off CGO_ENABLED=0

go build -o "$out/fairallocd" ./cmd/fairallocd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --daemon "$out/fairallocd" --work "$out/runs" --traces "$out/traces" "$@"
