#!/usr/bin/env bash
# Builds fsdep, fsdepd and the benchmark harness from this checkout, then
# runs the harness with the given arguments. Run it from the repository
# root:
#
#   bash bench/run.sh --workload cold --seed 1 --seconds 25 --trace 0
#   bash bench/run.sh agree parent.jsonl change.jsonl
#
# Binaries, the Go build cache and the harness's scratch files stay under
# $CARGO_TARGET_DIR (default .bench_build) in the checkout, and the build
# never reaches the network.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
export CARGO_TARGET_DIR=$out
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOMODCACHE=$out/gomod XDG_CONFIG_HOME=$out/config
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
mkdir -p "$out/bin" "$out/new" "$GOTMPDIR"
# Without this the go command keeps telemetry counters under
# $XDG_CONFIG_HOME, written after a build has already returned.
go telemetry off 2>/dev/null || true

go build -o "$out/new/" ./cmd/fsdep ./cmd/fsdepd
(cd bench && go build -o "$out/new/fsdepbench" . && go build -o "$out/new/peakrss" ./peakrss)
# A binary is replaced only when it changed. Rewriting an unchanged one
# gives it a fresh page cache, whose layout moves the resident set of
# every process spawned from it.
for b in fsdep fsdepd fsdepbench peakrss; do
	cmp -s "$out/new/$b" "$out/bin/$b" || mv -f "$out/new/$b" "$out/bin/$b"
done
exec "$out/bin/fsdepbench" "$@"
