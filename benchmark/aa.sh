#!/usr/bin/env bash
# A/A study: the same code against itself, the way the acceptance check
# measures it.
#
#   benchmark/aa.sh N [SETS] [SECONDS]
#
# Each set runs every workload N times, each time with another seed
# (1..N), tracing off, SECONDS per run (default: BENCHMARK.json's
# run_seconds). Runs go round-robin over the workloads, so one workload's
# N runs span the whole set and a slow spell of the host cannot cover
# them all. Per workload x end-to-end metric it prints the median and the
# quartile spread (Q3 - Q1) / median against the metric's bound, and with
# SETS > 1 how much worse each later set's median is than the first's.
# Exits non-zero if a spread (except setup_s, as in the acceptance check)
# or a median shift exceeds its bound, or any run was not correct.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
[ $# -ge 1 ] || { sed -n '2,17p' "${BASH_SOURCE[0]}" >&2; exit 2; }

exec python3 - "$here" "$@" <<'PY'
import json, statistics, subprocess, sys

here, n = sys.argv[1], int(sys.argv[2])
sets = int(sys.argv[3]) if len(sys.argv) > 3 else 1
spec = json.load(open(f"{here}/../BENCHMARK.json"))
seconds = sys.argv[4] if len(sys.argv) > 4 else str(spec["run_seconds"])
workloads = [w["name"] for w in spec["workloads"]]
metrics = spec["end_to_end"]
if n < 2:
    sys.exit("N must be at least 2: quartiles need two values")

def run(workload, seed):
    out = subprocess.run(
        ["bash", f"{here}/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=False)
    result = json.loads(out.stdout.strip().splitlines()[-1]) if out.stdout.strip() else {}
    if out.returncode != 0 or not result.get("correct"):
        sys.exit(f"{workload} seed {seed}: run failed (exit {out.returncode})")
    return {k: v["value"] for k, v in result["metrics"].items()}

bad = []
medians = []  # per set: {(workload, metric): median}
for s in range(sets):
    values = {w: [] for w in workloads}
    for seed in range(1, n + 1):
        for w in workloads:
            values[w].append(run(w, seed))
            print(f"set {s + 1} seed {seed} {w}: {values[w][-1]}", file=sys.stderr)
    medians.append({})
    print(f"\nset {s + 1}: {n} seeds x {seconds} s")
    print(f"{'workload':<14}{'metric':<13}{'median':>12}{'min':>12}{'max':>12}{'spread':>9}{'bound':>7}")
    for w in workloads:
        for m in metrics:
            xs = [v[m["name"]] for v in values[w]]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            medians[s][w, m["name"]] = med
            over = spread > m["bound"] and m["name"] != "setup_s"
            if over:
                bad.append(f"set {s + 1} {w} {m['name']}: spread {spread:.1%} > {m['bound']:.0%}")
            print(f"{w:<14}{m['name']:<13}{med:>12.4f}{min(xs):>12.4f}{max(xs):>12.4f}"
                  f"{spread:>9.1%}{m['bound']:>7.0%}{'  OVER' if over else ''}")

for s in range(1, sets):
    print(f"\nset {s + 1} median against set 1 (positive = worse)")
    for w in workloads:
        for m in metrics:
            a, b = medians[0][w, m["name"]], medians[s][w, m["name"]]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            over = worse > m["bound"]
            if over:
                bad.append(f"set {s + 1} {w} {m['name']}: median {worse:+.1%} worse than set 1")
            print(f"{w:<14}{m['name']:<13}{a:>12.4f}{b:>12.4f}{worse:>+9.1%}{m['bound']:>7.0%}"
                  f"{'  OVER' if over else ''}")

if bad:
    print("\nFAILED:\n  " + "\n  ".join(bad))
    sys.exit(1)
print("\nall spreads and median shifts within bounds")
PY
