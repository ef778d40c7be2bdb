#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Everything the build and the run write stays inside the checkout:
# the go caches, the binaries and the temporary WAL directories live
# under .bench_build at its root.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS=-modcacherw GOPROXY=off GOTOOLCHAIN=local

go build -C "$here" -o "$build/benchmark" .
exec "$build/benchmark" -root "$root" "$@"
