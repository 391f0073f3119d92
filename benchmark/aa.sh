#!/bin/bash
# A/A check: runs two full sets of the same commit, RUNS runs of every
# workload each and every run on a seed of its own, then compares the second
# set with the first under BENCHMARK.json's bounds. Two sets of ten take
# about 40 minutes.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
runs=${RUNS:-10}
out=benchmark/out
mkdir -p "$out"
rm -f "$out/aa-a.json" "$out/aa-b.json"
seed=1
for set in a b; do
  for ((i = 0; i < runs; i++, seed++)); do
    for w in gqp_mem qpipe_sp_disk gqp_prune_disk reuse_mem http_serve; do
      echo "set $set seed $seed $w" >&2
      bash benchmark/run.sh --workload "$w" --seed "$seed" --out "$out/aa-$set.json" --append >/dev/null
    done
  done
done
bash benchmark/run.sh --compare "$out/aa-a.json" "$out/aa-b.json"
