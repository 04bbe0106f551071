#!/usr/bin/env bash
# Builds the benchmark (and the product it drives) from this checkout, then
# runs it.
#
#   benchmark/run.sh                       # every workload, end-to-end metrics
#   benchmark/run.sh --trace               # every workload, traced run
#   benchmark/run.sh --workload serve-cul --seed 7 --trace 0
#
# The build lives in .bench_build/ at the checkout root; traces are written
# there as trace-<workload>.json. Build output goes to stderr, so the last
# stdout line of a single-workload run is its JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f CMakeLists.txt || ! -d src || ! -d tools ]]; then
  echo "run.sh: the OCuLaR sources (CMakeLists.txt, src/, tools/) are not" \
       "next to benchmark/ in $root; nothing to build" >&2
  exit 2
fi

build=.bench_build
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j 4 --target ocular_bench ocular_served ocular_fleet >&2

bench=("$build/ocular_bench" --served "$build/ocular/tools/ocular_served"
       --fleet "$build/ocular/tools/ocular_fleet"
       --fingerprints benchmark/fingerprints.json --out "$build")

if [[ " $* " == *" --workload "* || " $* " == *" --workload="* ]]; then
  exec "${bench[@]}" "$@"
fi
status=0
for workload in serve-cul live-b2b fleet-b2b train-ml; do
  "${bench[@]}" --workload "$workload" "$@" || status=$?
done
exit "$status"
