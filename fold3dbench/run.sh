#!/usr/bin/env bash
# Build fold3dbench from this checkout's sources and run it. Arguments pass
# through, e.g.:
#
#   bash fold3dbench/run.sh --workload chip-s100 --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the binary)
# and everything the run writes (traces, run log) stays under .bench_build/
# at the checkout root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build/go"
mkdir -p "$build/cache" "$build/tmp" "$build/config" "$build/path"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" GOPATH="$build/path" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOENV=off GOFLAGS=

(cd fold3dbench && go build -o "$build/fold3dbench" .)
exec "$build/fold3dbench" "$@"
