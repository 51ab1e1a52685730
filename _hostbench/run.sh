#!/usr/bin/env bash
# Builds the host-performance benchmark from source and runs it from the
# repository root; every argument is passed on (see README.md).
#
# The Go build cache, temporary files and the binary stay inside the
# checkout, under $CARGO_TARGET_DIR (default .bench_build). The build needs
# the repository's own sources one directory up: without them it fails and
# the script exits non-zero before anything runs.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/hostbench" .)
cd "$root"
exec "$out/hostbench" -out "$out/hostbench-out" "$@"
