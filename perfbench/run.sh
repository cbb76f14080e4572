#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it is run in and
# runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload join-cold --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (binary, Go build cache, Go's own config)
# stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
