#!/usr/bin/env bash
# Builds elpcd and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Everything the build and the run
# write stays under .bench_build in the checkout root.
#
#   bash perfbench/run.sh --workload plan-hit --seed 1 --seconds 10 --trace 0
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/elpcd" ]; then
	echo "perfbench: run from the root of an elpc checkout (no go.mod or cmd/elpcd here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	XDG_CONFIG_HOME="$out/config" CGO_ENABLED=0
# With telemetry on (the default "local" mode) the go command starts a
# detached upload process that outlives the build; turning it off first
# keeps every process the benchmark starts inside its own lifetime.
go telemetry off
go build -o "$out/elpcd" ./cmd/elpcd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -elpcd "$out/elpcd" "$@"
