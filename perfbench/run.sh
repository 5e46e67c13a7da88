#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing
# every argument through. Run from the root of a checkout:
#
#	bash perfbench/run.sh --workload vec-search --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, bundles,
# span files, result records) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its config and telemetry counters under the user
# config directory; point that into the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
# A fresh build leaves tens of MB of dirty pages; flush them so their
# write-back does not land in the first run's measurements.
sync
exec "$out/perfbench" "$@"
