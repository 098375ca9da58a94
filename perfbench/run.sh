#!/usr/bin/env bash
# Builds the DPFS benchmark from the source tree it sits in, then runs
# it from the tree's root with every argument passed through:
#
#   bash perfbench/run.sh --workload hotread-floor --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files, the binary, per-run cluster
# directories and trace output all stay under .bench_build at the root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod

cd "$root/perfbench"
go build -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" "$@"
