#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload leaky-dma --seed 0 --seconds 30 --trace 0
#
# Every build artefact (binary, Go build cache, temp files, the go
# command's telemetry counters) stays under .bench_build/ (or
# $CARGO_TARGET_DIR when set), so the run writes nothing outside the
# checkout. Without the simulator's sources beside perfbench/ the build
# fails and the script exits non-zero.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=mod
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out/trace" "$@"
