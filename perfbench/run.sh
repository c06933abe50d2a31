#!/usr/bin/env bash
# Builds and runs irdb's benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload search-hot|serve-ingest --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binaries and each run's data files.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/irdb-server" ]]; then
	echo "perfbench: run from the root of an irdb checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/runs"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

go build -o "$out/bin/irdb-server" ./cmd/irdb-server
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --server-bin "$out/bin/irdb-server" --work-dir "$out/runs" "$@"
