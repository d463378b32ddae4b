#!/usr/bin/env bash
# Builds the stage-ledger benchmark from source and runs one workload.
# Run from the repository root:
#
#   bash stagebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Every file the toolchain writes (build cache, binary, service data
# directories) stays under .bench_build in the working directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off
(cd "$root/stagebench" && go build -o "$out/stagebench" .) >&2
exec "$out/stagebench" "$@"
