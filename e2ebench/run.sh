#!/usr/bin/env bash
# Builds rewindd and the e2ebench load generator from this checkout, then
# runs one benchmark pass. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload point-update --seed 1 --seconds 12 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout:
# the Go build cache, both binaries, the backing files (removed at exit)
# and the traced run's joined spans (.bench_build/traces/).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

go build -o "$out/bin/rewindd" ./cmd/rewindd
(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" .)

exec "$out/bin/e2ebench" -rewindd "$out/bin/rewindd" -workdir "$out/run-$$" \
	-trace-dir "$out/traces" "$@"
