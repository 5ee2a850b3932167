#!/usr/bin/env bash
# Builds the perfbench binary from this checkout's sources and runs it
# from the checkout root, passing every argument through:
#
#   bash perfbench/run.sh --workload grid --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch files all
# go under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" "$@"
