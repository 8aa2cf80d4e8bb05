#!/usr/bin/env bash
# Runs the benchmark on several seeds and prints each end-to-end metric's
# median and quartile spread per workload against BENCHMARK.json's bounds.
# Run it from the repository root:
#
#   bash stackbench/sweep.sh <results-dir> <runs> <seconds> <workload>...
#
# Seeds are 1..<runs>. Results accumulate in <results-dir>; the summary
# covers every untraced result file there.
set -euo pipefail
dir=$1 runs=$2 secs=$3
shift 3
mkdir -p "$dir"
for w in "$@"; do
	for ((s = 1; s <= runs; s++)); do
		bash stackbench/run.sh --workload "$w" --seed "$s" --seconds "$secs" --trace 0 --out "$dir" | tail -1
	done
done
exec .bench_build/stackbench -spread "$dir"
