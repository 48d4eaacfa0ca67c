#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it.
#
# Run from the repository root:
#   bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The binary, the Go build cache and every other file the toolchain
# writes stay under .bench_build in the current directory, and the
# build uses only the local toolchain and this repository's sources.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

if ! go -C "$(dirname "$0")" build -o "$out/e2ebench" . >&2; then
	echo "e2ebench: build failed" >&2
	exit 1
fi
exec "$out/e2ebench" "$@"
