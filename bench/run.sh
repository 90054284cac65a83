#!/usr/bin/env bash
# Builds the benchmark harness and runs it from the repository root,
# passing every argument through (see bench/README.md). The Go build
# cache, temporary files and binaries all stay under .bench_build in
# the checkout, and cgo is off, so a build needs nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
  XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local CGO_ENABLED=0
go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
