#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it:
#   bash perfbench/run.sh --workload train|serve|dist|all --seed N --seconds S --trace 0|1
# Run from the repository root. Build outputs and the Go build cache stay
# under .bench_build/ so nothing is read or written outside the checkout
# apart from the Go toolchain itself.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off GOENV=off
go -C perfbench build -buildvcs=false -o "$out/perfbench" .

workload=""
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	if [[ ${args[i]} == --workload && $((i + 1)) -lt ${#args[@]} ]]; then
		workload=${args[i + 1]}
	fi
done
if [[ $workload != all ]]; then
	exec "$out/perfbench" "$@"
fi
# --workload all: one block per workload, each in its own process so peak
# RSS and heap state are not shared between workloads.
for w in train serve dist; do
	for ((i = 0; i < ${#args[@]}; i++)); do
		if [[ ${args[i]} == --workload ]]; then args[i + 1]=$w; fi
	done
	"$out/perfbench" "${args[@]}"
done
