#!/usr/bin/env bash
# Builds tdpipe-bench from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash cmd/tdpipe-bench/run.sh --workload prefix-chat --seed 1 --seconds 16 --trace 0
#
# The Go build cache, temporary files, CPU profiles and the binary all
# stay under .bench_build in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local

go -C cmd/tdpipe-bench build -trimpath -o "$out/tdpipe-bench" .
exec "$out/tdpipe-bench" "$@"
