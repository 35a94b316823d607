#!/usr/bin/env bash
# Runs every BENCHMARK.json workload on three fixed seeds through
# perfbench/run.py (tracing off, BENCHMARK.json's run_seconds each) and
# appends to BENCH_perfbench.json:
#   - each run's report line (host and build fingerprint, every figure
#     behind the metrics) and result line, as run.py prints them;
#   - then one summary line per workload: the median and the quartiles
#     (q1, q3) of each end-to-end metric across the seeds, with the host
#     and commit of the runs.
# run.py builds the benchmark into its own directory (.bench_build) and fails
# closed on any correctness check; this script stops at the first failed run.
# Compare rows only between runs on one host.
#
# Usage: scripts/bench.sh
set -euo pipefail

if [ "$#" -ne 0 ]; then
  echo "usage: scripts/bench.sh (takes no arguments)" >&2
  exit 2
fi

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"
out="$repo_root/BENCH_perfbench.json"
seeds=(1 2 3)

spec() { python3 -c "import json; spec = json.load(open('BENCHMARK.json')); $1"; }
workloads="$(spec 'print(" ".join(w["name"] for w in spec["workloads"]))')"
seconds="$(spec 'print(spec["run_seconds"])')"

for workload in $workloads; do
  runs=""
  for seed in "${seeds[@]}"; do
    echo "bench.sh: $workload seed $seed (${seconds} s)" >&2
    lines="$(python3 perfbench/run.py --workload "$workload" --seed "$seed" \
      --seconds "$seconds" --trace 0)"
    printf '%s\n' "$lines" >> "$out"
    runs+="$lines"$'\n'
  done
  # Each run ends with its report line and its result line.
  printf '%s' "$runs" | python3 -c '
import json, statistics, sys
lines = [json.loads(l) for l in sys.stdin.read().splitlines() if l.strip()]
results = [l for l in lines if "metrics" in l and "correct" in l]
reports = [l for l in lines if "host" in l]
host = {k: v for k, v in reports[-1]["host"].items() if k not in ("seed", "seconds")}
metrics = {}
for name in results[0]["metrics"]:
    values = [r["metrics"][name]["value"] for r in results]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    metrics[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                     "unit": results[0]["metrics"][name]["unit"]}
seeds = [r["host"]["seed"] for r in reports]
print(json.dumps({"summary": {"host": host, "seeds": seeds, "runs": len(results)},
                  "metrics": metrics}))
' >> "$out"
  echo "bench.sh: $workload summary:" >&2
  tail -n 1 "$out" >&2
done
echo "bench.sh: appended every run and one summary per workload to $out" >&2
