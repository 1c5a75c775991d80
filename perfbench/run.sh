#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Every build artefact, cache and trace
# file stays under .bench_build/ in that directory (CARGO_TARGET_DIR, when
# set, names the same place), so a run writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
export BENCH_OUT=$out

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
