#!/usr/bin/env bash
# Builds gfrebench and runs it from the repository root; every argument is
# passed through (see README.md). The Go build cache, temporary files and all
# benchmark outputs stay under .bench_build/ in the repository.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C bench/gfrebench build -o "$build/gfrebench" .
exec "$build/gfrebench" -repo "$root" "$@"
