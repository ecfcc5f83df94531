#!/bin/bash
# Builds the benchmark from source into .bench_build/ under the checkout
# root and runs it there. HOME is pointed into the build directory for the
# go tool so its caches stay inside the checkout; nothing outside it is
# written.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/home"
(cd "$root/bench" && HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local go build -o "$build/escape-bench" .)
cd "$root"
exec "$build/escape-bench" "$@"
