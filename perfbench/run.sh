#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from anywhere:
#
#   bash perfbench/run.sh --workload report --seed 1 --seconds 20 --trace 0
#
# Every build artefact and scratch file stays under .bench_build/ at the
# repository root, or under $CARGO_TARGET_DIR when set (relative to the
# root); nothing else in the checkout is written.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --root "$root" --scratch "$build" "$@"
