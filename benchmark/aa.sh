#!/usr/bin/env bash
# A/A check: run every workload N times twice with the same binary and
# compare the two sets of runs with the benchmark's own bounds.
#
#   benchmark/aa.sh [N]        (default 5; each run takes about 25 s)
#
# The two sets alternate (A B B A A B ...), every run has its own seed.
# Per workload and end-to-end metric it prints the two medians, how much
# worse B is than A, the spread of all 2N runs (distance between the
# quartiles as a share of the median) and the bound from BENCHMARK.json.
# FAIL: B's median is worse than A's by more than the bound. UNRESOLVED:
# the spread alone exceeds the bound, so the metric cannot tell a change
# of that size from noise on this host. PASS otherwise. The check passes
# when every metric of every workload listed in BENCHMARK.json passes;
# `bank-durable` is run and reported but not listed (see the README).
# Writes benchmark/out/aa.json.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
n="${1:-5}"

python3 - "$here" "$n" <<'PY'
import json, statistics, subprocess, sys

here, n = sys.argv[1], int(sys.argv[2])
spec = json.load(open(f"{here}/../BENCHMARK.json"))
seconds = spec["run_seconds"]

def run(workload, seed):
    out = subprocess.run(
        ["bash", f"{here}/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        check=True, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: correctness check failed")
    return {k: v["value"] for k, v in result["metrics"].items()}

def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)

rows, ok = [], True
listed = [w["name"] for w in spec["workloads"]]
for w in listed + ["bank-durable"]:
    sets = {"A": [], "B": []}
    for i in range(2 * n):
        side = "AB"[(i + 1) // 2 % 2]
        sets[side].append(run(w, 1 + i))
        print(f"  {w} run {i + 1}/{2 * n} ({side})", file=sys.stderr)
    for m in spec["end_to_end"]:
        a = statistics.median(r[m["name"]] for r in sets["A"])
        b = statistics.median(r[m["name"]] for r in sets["B"])
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        s = spread([r[m["name"]] for r in sets["A"] + sets["B"]])
        verdict = "FAIL" if worse > m["bound"] else "UNRESOLVED" if s > m["bound"] else "PASS"
        ok &= verdict == "PASS" or w not in listed
        rows.append({"workload": w, "metric": m["name"], "unit": m["unit"],
                     "median_a": a, "median_b": b, "b_worse_by": worse, "spread": s,
                     "bound": m["bound"], "verdict": verdict})

print(f"{'workload':14} {'metric':18} {'median A':>11} {'median B':>11} {'B worse':>8} {'spread':>7} {'bound':>6}")
for r in rows:
    print(f"{r['workload']:14} {r['metric']:18} {r['median_a']:11.4f} {r['median_b']:11.4f} "
          f"{100 * r['b_worse_by']:7.2f}% {100 * r['spread']:6.2f}% {100 * r['bound']:5.0f}%  "
          f"{r['verdict']}")
json.dump({"runs_per_set": n, "run_seconds": seconds, "rows": rows}, open(f"{here}/out/aa.json", "w"), indent=1)
print("A/A:", "PASS" if ok else "FAIL")
sys.exit(0 if ok else 1)
PY
