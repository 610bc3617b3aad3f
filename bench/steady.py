#!/usr/bin/env python3
"""Steadiness of the benchmark: run every workload N times in fresh
processes, alternating the workload order, one new seed per run, and
print each end-to-end metric's median, quartiles, spread (quartile
distance over median) and the difference between the medians of two
independent halves (even and odd runs).

    python3 bench/steady.py --runs 10 --seconds 30
    python3 bench/steady.py --runs 5 --workloads pd-resolution --trace-pairs 2

--trace-pairs K also makes two traced runs on each of K seeds, checks
that every count repeats exactly, and prints the tracing overhead: the
traced against the untraced median of instances per second.

Raw results go to bench/out/steady.json (or --out).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("q1-saturation", "pd-resolution", "torsion-certificates")
RUN_TIMEOUT_S = 180


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out.update(workload=workload, seed=seed, trace=trace, wall_s=wall, stderr=proc.stderr)
    return out


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    halves = (statistics.median(values[0::2]), statistics.median(values[1::2]))
    return {
        "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / med,
        "halves": (halves[1] - halves[0]) / halves[0],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--trace-pairs", type=int, default=0)
    ap.add_argument("--out", default=str(BENCH / "out" / "steady.json"))
    args = ap.parse_args(argv)
    names = args.workloads.split(",")
    if args.runs < 4:
        ap.error("quartiles need at least 4 runs")

    runs: list = []
    for r in range(args.runs):
        for w in (names if r % 2 == 0 else names[::-1]):
            res = run_once(w, args.seed_base + r, args.seconds, 0)
            runs.append(res)
            print(f"run {r} {w} seed={res['seed']} wall={res['wall_s']:.1f}s "
                  f"failed={res['failed']}/{res['attempted']} correct={res['correct']}",
                  file=sys.stderr, flush=True)
    traced: list = []
    for k in range(args.trace_pairs):
        for w in names:
            for _ in range(2):
                traced.append(run_once(w, args.seed_base + k, args.seconds, 1))

    print(f"{'workload':22} {'metric':16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'halves':>7}")
    for w in names:
        mine = [r for r in runs if r["workload"] == w]
        for metric in mine[0]["metrics"]:
            s = summary([r["metrics"][metric]["value"] for r in mine])
            print(f"{w:22} {metric:16} {s['median']:12.4f} {s['q1']:12.4f} {s['q3']:12.4f} "
                  f"{s['spread']:7.3f} {s['halves']:+7.3f}")
        shares = {r["failed"] / r["attempted"] for r in mine}
        walls = [r["wall_s"] for r in mine]
        print(f"{w:22} failed shares {sorted(shares)}, all correct "
              f"{all(r['correct'] for r in mine)}, wall per run {min(walls):.1f}-{max(walls):.1f} s")
        mine_t = [r for r in traced if r["workload"] == w]
        if mine_t:
            counts_ok = all(
                {k: v["value"] for k, v in a["metrics"].items() if v["unit"] == "count"}
                == {k: v["value"] for k, v in b["metrics"].items() if v["unit"] == "count"}
                for a, b in zip(mine_t[0::2], mine_t[1::2]))
            traced_ips = statistics.median(r["metrics"]["traced.instances_per_s"]["value"]
                                           for r in mine_t)
            plain_ips = statistics.median(r["metrics"]["instances_per_s"]["value"] for r in mine)
            print(f"{w:22} traced counts repeat exactly: {counts_ok}; tracing overhead "
                  f"{1 - traced_ips / plain_ips:+.1%} of instances per second")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"runs": runs, "traced": traced}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
