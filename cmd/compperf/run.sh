#!/usr/bin/env bash
# Builds compperf from source and runs it with the given flags. Run it from
# the root of the repository:
#
#   bash cmd/compperf/run.sh --workload compile --seed 1 --seconds 20 --trace 0
#
# The build cache, temporary files and the binary stay under .bench_build
# in the current directory; the build needs no network.
set -euo pipefail

out="$PWD/.bench_build/compperf"
mkdir -p "$out/cache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off

(cd "$(dirname "$0")" && go build -o "$out/compperf" .)
exec "$out/compperf" "$@"
