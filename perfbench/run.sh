#!/usr/bin/env bash
# Builds bloomrfd and the perfbench program from this checkout's sources,
# then runs one benchmark workload. All build outputs, caches and scratch
# data stay under the checkout's build directory (.bench_build, or
# $CARGO_TARGET_DIR when set).
#
#   bash perfbench/run.sh --workload point-large-bin --seed 1 --seconds 12 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOENV=off GOWORK=off

# Both builds must come from this checkout; a missing source tree fails
# here, before any result is printed.
go build -o "$build/bin/bloomrfd" ./cmd/bloomrfd >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" -root "$root" -bloomrfd "$build/bin/bloomrfd" -workdir "$build/work" -results "$build/results" "$@"
