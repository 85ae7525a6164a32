#!/usr/bin/env bash
# Builds the benchmark and revserve from this checkout into .bench_build
# and runs the benchmark with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload peephole --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every build and run output, the Go
# build cache included, stays under .bench_build.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/revserve" ]; then
	echo "run.sh: run from the repository root (no go.mod or cmd/revserve here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/revserve" ./cmd/revserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --bin "$out" "$@"
