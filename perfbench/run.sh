#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload lp-recon --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes (the
# binary, the Go build cache, WAL files, span files) goes under
# .bench_build/ in the current directory.
set -euo pipefail

if ! grep -qs '^module singlingout$' go.mod; then
	echo "perfbench: run from the repository root (no go.mod for module singlingout here)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" --dir "$out" "$@"
