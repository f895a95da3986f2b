#!/usr/bin/env bash
# A/A check: runs the whole suite twice on the same tree and compares the two
# with the benchmark's own bounds. It fails if any end-to-end cell is worse,
# or if any workload's trace_hash differs between the two sides (the same
# code on the same seeds must see and choose exactly the same numbers).
#
#   bash benchmark/aa.sh                 # 3 runs per workload and side, ~10 min
#   AA_RUNS=10 bash benchmark/aa.sh      # the acceptance setting
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs="${AA_RUNS:-3}"
seconds="${AA_SECONDS:-12}"
seed="${AA_SEED:-1}"
out="$PWD/.bench_build/aa"
mkdir -p "$out"
for side in A B; do
  bash "$here/run.sh" --seed "$seed" --seconds "$seconds" --runs "$runs" --out "$out/$side.json" > "$out/$side.txt"
done
bash "$here/run.sh" --compare "$out/A.json" "$out/B.json" | tee "$out/compare.txt"
if grep -q "trace_hash changed" "$out/compare.txt"; then
  echo "aa: trace_hash differs between two runs of the same tree" >&2
  exit 1
fi
