#!/usr/bin/env bash
# Builds cmd/asrsd and the benchmark from source, then runs the benchmark
# with the arguments given. Everything the build and the run write stays
# inside the checkout, under .bench_build/ and bench/out/: the Go build
# cache, the module cache, and (through HOME) whatever else the toolchain
# keeps. The toolchain's telemetry is switched off in that HOME first:
# with a fresh HOME every `go` command would otherwise start a detached
# (setsid) telemetry child that outlives this script. Run from anywhere:
#
#   bash bench/run.sh --workload f1-distinct --seed 7 --seconds 15 --trace 0
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=$root/.bench_build
if [[ ! -f $root/go.mod || ! -d $root/cmd/asrsd ]]; then
	echo "bench/run.sh: $root does not hold the asrs module (go.mod, cmd/asrsd); nothing to benchmark" >&2
	exit 2
fi
mkdir -p "$out/home/.config/go/telemetry"
echo off >"$out/home/.config/go/telemetry/mode"
build() {
	HOME=$out/home XDG_CONFIG_HOME=$out/home/.config \
		GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOFLAGS=-modcacherw GOTOOLCHAIN=local \
		go build "$@" >&2
}
(cd "$root" && build -o "$out/asrsd" ./cmd/asrsd)
(cd "$root/bench" && build -o "$out/asrs-bench" .)
exec "$out/asrs-bench" -root "$root" -asrsd "$out/asrsd" "$@"
