#!/usr/bin/env bash
# Builds netdag-bench and netdag-serve from this checkout and runs one
# benchmark invocation. Run it from the repository root:
#
#   bash bench/run.sh --workload corpus --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh --workload all --seconds 5
#   bash bench/run.sh compare runs/a-*.json -- runs/b-*.json
#
# Binaries, Go caches, results and traces all go under .bench_build/, so a
# run reads and writes only inside the checkout. The first build compiles
# the standard library into that cache; later runs reuse it.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS="" GOWORK=off

mkdir -p "$out/bin"
go build -o "$out/bin/netdag-serve" ./cmd/netdag-serve
(cd bench && go build -o "$out/bin/netdag-bench" ./cmd/netdag-bench)

if [ "${1:-}" = compare ]; then
	exec "$out/bin/netdag-bench" "$@"
fi
exec "$out/bin/netdag-bench" -root "$root" -serve-bin "$out/bin/netdag-serve" -out-dir "$out" "$@"
