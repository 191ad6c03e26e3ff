#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload pagerank-mem --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh steady -runs 5 [-workloads pagerank-mem,...]
#
# Build outputs, the Go build cache, scratch device files and traces all go
# to $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

if [ "${1:-}" = steady ]; then
	shift
	(cd "$root/perfbench" && go build -o "$out/steady" ./steady)
	exec "$out/steady" "$@"
fi
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
