#!/usr/bin/env bash
# Builds the benchmark from the checkout this script lives in and runs it
# with the given arguments. Everything the build and the runs leave behind
# goes under .bench_build/ at the repository root. See bench/README.md.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C "$root/bench" build -o "$build/spfail-bench" .
cd "$root"
exec "$build/spfail-bench" "$@"
