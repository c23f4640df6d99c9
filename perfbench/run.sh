#!/usr/bin/env bash
# Builds the simulator benchmark from the source in this checkout and runs
# it. Run from the checkout root:
#
#   bash perfbench/run.sh --workload stream --seed 1 --seconds 20 --trace 0
#
# The build, the Go build cache and the traced run's span and profile files
# all stay under ${CARGO_TARGET_DIR:-.bench_build} in the checkout.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build"
build=$(cd "$build" && pwd)

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/trace" "$@"
