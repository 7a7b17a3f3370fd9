#!/usr/bin/env python3
"""A/A steadiness report: two sets of runs of one build, compared.

Run from the repository root:

    python3 perfbench/aa.py --runs 10 --workloads tables,sweep,daemon

For each workload it makes two sets of --runs untraced runs, one seed
per run (the same seeds in both sets, the sets interleaved), and prints
for every end-to-end metric of BENCHMARK.json each set's median, its
spread (the distance between the first and third quartile as a share of
the median, as statistics.quantiles(values, n=4) gives them), the gap
between the two medians against the metric's bound, and every run's
value. A spread is
flagged when it exceeds a third of the bound, and fails above the bound;
the median gap fails above the bound. Then it makes two traced runs at
one seed and requires the count metrics to repeat exactly. Exits
non-zero when any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Per-layer metrics that are counts of deterministic work and must
# repeat exactly between two runs at one seed.
EXACT = ("sim.rounds", "sim.wakeups", "dist.shards", "dist.cases", "dist.sweeps",
         "sim.runs.", "rvd.journal_appends", "rvd.shards_executed", "rvd.cache_hits")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {res['failed']} of {res['attempted']} ops failed")
    return {k: v["value"] for k, v in res["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()

    ok = True
    for w in args.workloads.split(","):
        sets = ([], [])
        for i in range(args.runs):
            for s in sets:
                s.append(run(w, args.seed0 + i, args.seconds, 0))
        print(f"{w}: {args.runs} runs per set, {args.seconds}s each", flush=True)
        print(f"  {'metric':<14} {'median A':>12} {'median B':>12} {'spread A':>9} {'spread B':>9} {'gap':>7} {'bound':>6}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [r[name] for r in sets[0]]
            b = [r[name] for r in sets[1]]
            sa, sb = spread(a), spread(b)
            ma, mb = statistics.median(a), statistics.median(b)
            gap = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            flag = ""
            if gap > bound or max(sa, sb) > bound:
                flag, ok = "FAIL", False
            elif max(sa, sb) > bound / 3:
                flag = "wide"
            print(f"  {name:<14} {ma:12.4f} {mb:12.4f} {sa:9.4f} {sb:9.4f} {gap:7.4f} {bound:6.2f} {flag}")
            print("    A:", " ".join(f"{v:.4g}" for v in a))
            print("    B:", " ".join(f"{v:.4g}" for v in b))

        t1, t2 = run(w, args.seed0, args.seconds, 1), run(w, args.seed0, args.seconds, 1)
        bad = [k for k in t1 if k.startswith(EXACT) and t1[k] != t2[k]]
        if bad:
            ok = False
            for k in bad:
                print(f"  count {k} differs at seed {args.seed0}: {t1[k]} vs {t2[k]} FAIL")
        else:
            print(f"  counts repeat exactly at seed {args.seed0}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
