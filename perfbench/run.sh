#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it, passing every
# argument through:
#
#   bash perfbench/run.sh --workload hstuner-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind (Go build cache, binary,
# spans of traced runs) goes under .bench_build/ at the checkout root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

bin="$out/perfbench"
go -C "$here" build -o "$bin.tmp.$$" .
mv -f "$bin.tmp.$$" "$bin"
exec "$bin" --spans "$out/spans" "$@"
