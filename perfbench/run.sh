#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it. All arguments pass through, for example:
#
#   bash perfbench/run.sh --workload solve --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --workload all
#
# The build cache, the compiler's scratch files and the Go command's own
# config directory (where it keeps telemetry counters) live under
# .bench_build/ too, so the benchmark writes nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(cd "$here/.." && pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
