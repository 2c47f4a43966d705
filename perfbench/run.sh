#!/usr/bin/env bash
# Builds the benchmark from the sources in the current checkout and runs it
# with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload testbed-paper --seed 1 --seconds 40 --trace 0
#
# Everything the go command writes (compiler cache, temporaries, its
# configuration and telemetry, the binary) stays under .bench_build in the
# checkout.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
