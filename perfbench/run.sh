#!/usr/bin/env bash
# Builds the benchmark and risc1-serve from this checkout's sources into
# .bench_build/ (the Go build cache and the go command's own config and
# telemetry files included, so nothing is written outside the checkout),
# then runs the benchmark with the arguments given:
#
#   bash perfbench/run.sh --workload interp --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
    GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
(cd "$root" && go build -o "$out/risc1-serve" ./cmd/risc1-serve)
exec "$out/perfbench" -root "$root" -serve-bin "$out/risc1-serve" -out "$out" "$@"
