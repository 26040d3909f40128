#!/usr/bin/env bash
# Builds the fsdep benchmark and the fsdepd daemon from this checkout,
# then runs the benchmark with the arguments given, for example:
#
#   bash fsdepbench/run.sh --workload cli-cold --seed 1 --seconds 10 --trace 0
#
# Builds, Go caches, stores and traces all stay in the build directory:
# $CARGO_TARGET_DIR if set, else .bench_build at the checkout root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
mkdir -p "$build/tmp" "$build/config" "$build/bin"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

go -C "$root/fsdepbench" build -o "$build/bin/fsdepbench" .
go build -o "$build/bin/fsdepd" ./cmd/fsdepd
exec "$build/bin/fsdepbench" --root "$root" --fsdepd "$build/bin/fsdepd" --work "$build/work" "$@"
