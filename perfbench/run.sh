#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload progressive --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, binary,
# session snapshots, trace dumps) stays under .bench_build/ in the
# current directory, or under $CARGO_TARGET_DIR when that is set.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$(pwd)/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in here too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=
# Fall back to the Go distribution's standard install location.
command -v go >/dev/null || PATH="/usr/local/go/bin:$PATH"

go build -buildvcs=false -o "$out/perfbench" ./perfbench
exec "$out/perfbench" --dir "$out" "$@"
