#!/usr/bin/env bash
# Builds the benchmark and borg-serve from the tree this script sits in
# and runs the benchmark with the arguments given. It is run from the
# root of the checkout; everything it writes goes under .bench_build
# there, the Go build cache included.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$PWD/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/borg-e2e" . && go build -o "$build/borg-serve" borg/cmd/borg-serve) >&2
exec "$build/borg-e2e" "$@"
