#!/usr/bin/env python3
"""Benchmark of fplocal's q1, pd and torsion-certificate checks.

One process runs one workload for one seed:

    python3 bench/run.py --workload q1-saturation --seed 1 --seconds 30 --trace 0

It times whole rounds of the workload's operations until --seconds have
passed, then checks every answer against the oracle in bench/oracle.py
or against the answer known by construction, and prints as its last
line one JSON object: correct, attempted, failed and the metrics.  With
--trace 0 these are the end-to-end metrics; with --trace 1 the per-layer
metrics of bench/layers.py, measured in a separate run.  A line before it
gives the sha256 of the round's JSON reports.

fplocal is loaded from src/ next to this directory and from nowhere else;
without it the script exits 1 before printing a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SETUP_PROBES = 9      # fresh processes timed for setup_s; the median is reported
PROBE_TIMEOUT_S = 60
WORKLOADS = ("q1-saturation", "pd-resolution", "torsion-certificates")

# The speed of the machine drifts by a factor up to 1.7 over minutes, the
# same for any Python code (see README).  Every time metric is therefore
# scaled to a reference speed: a fixed calibration slice that shares no
# code with fplocal is timed every CALIBRATE_EVERY_S during the loop and
# around each setup probe, and a time t measured while the slice took c
# seconds is reported as t * REFERENCE_SLICE_S / c.  Never change the
# slice or the constant: that would move every time metric.
REFERENCE_SLICE_S = 0.0035
CALIBRATE_EVERY_S = 0.25


def calibration_slice() -> float:
    """Seconds taken by one fixed unit of pure-Python work shaped like the
    engine's inner loops: tuple monomials, dict updates mod a prime, and
    a grevlex-style max."""
    t0 = time.perf_counter()
    acc: dict = {}
    for i in range(1500):
        m = (i % 7, i * 3 % 11, i % 5, i * 7 % 13, i % 3)
        v = (acc.get(m, 0) + i * 7) % 101
        if v:
            acc[m] = v
        else:
            acc.pop(m, None)
    max(acc, key=lambda a: (sum(a), tuple(-e for e in reversed(a))))
    return time.perf_counter() - t0


def speed_factor(slices: list) -> float:
    """Factor that scales times measured alongside these slices to the
    reference speed."""
    return REFERENCE_SLICE_S / statistics.median(slices)


def _load_engine() -> None:
    pkg = SRC / "fplocal"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"bench: fplocal sources not found at {pkg}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import fplocal
    if Path(fplocal.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"bench: fplocal imported from {fplocal.__file__}, expected {pkg}")


def _probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process until it is ready to time
    its first instance (interpreter, import, inputs from the seed,
    warm-up), at the reference speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    slices = [calibration_slice() for _ in range(3)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    slices += [calibration_slice() for _ in range(3)]
    return elapsed * speed_factor(slices)


def _report_json(rep) -> str:
    return json.dumps(rep.to_json_dict(), sort_keys=True)


class Run:
    """The timed loop over whole rounds, and what it saw."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.times: list = []          # seconds per completed operation, at reference speed
        self.raw_times: list = []      # the same, as measured
        self.reports = [None] * len(ops)
        self.texts = [None] * len(ops)
        self.raised: dict = {}         # op index -> message
        self.rounds = 0
        self.unstable: list = []       # op labels whose report changed between rounds
        self.round_counts: list = []   # tracer snapshot after each round
        self.round_rates: list = []    # operations completed per second, per round

    def go(self, seconds: float) -> None:
        clock = time.perf_counter
        t_end = clock() + seconds
        while True:
            raw: list = []
            slices = [calibration_slice()]
            last_slice = clock()
            for k, op in enumerate(self.ops):
                if clock() - last_slice >= CALIBRATE_EVERY_S:
                    slices.append(calibration_slice())
                    last_slice = clock()
                t0 = clock()
                try:
                    rep = op.call(op.limits)
                except Exception as e:  # an engine fault is a failed operation
                    self.raised.setdefault(k, f"{type(e).__name__}: {e}")
                    continue
                raw.append(clock() - t0)
                text = _report_json(rep)
                if self.rounds == 0:
                    self.reports[k], self.texts[k] = rep, text
                elif text != self.texts[k] and op.label not in self.unstable:
                    self.unstable.append(op.label)
            self.rounds += 1
            if raw:
                scaled = [t * speed_factor(slices) for t in raw]
                self.raw_times += raw
                self.times += scaled
                self.round_rates.append(len(scaled) / sum(scaled))
            if self.tracer is not None:
                self.round_counts.append(self.tracer.snapshot())
            if clock() >= t_end:
                return

    def digest(self) -> str:
        h = hashlib.sha256()
        for text in self.texts:
            h.update(b"raised" if text is None else text.encode())
            h.update(b"\n")
        return h.hexdigest()

    def wrong(self) -> dict:
        """op index -> why its answer is wrong, for every op that answered."""
        out = {}
        for k, (op, rep) in enumerate(zip(self.ops, self.reports)):
            if rep is None:
                continue
            if getattr(rep, "outcome", None) == "resource-limit":
                out[k] = "resource-limit"
                continue
            why = op.check(rep)
            if why is not None:
                out[k] = why
        return out


def _end_to_end(run: Run, setup: list) -> dict:
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "instances_per_s": {"value": statistics.median(run.round_rates), "unit": "1/s"},
        "instance_p50_ms": {"value": statistics.median(run.times) * 1000.0, "unit": "ms"},
        "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
    }


def _per_layer(run: Run, layers) -> tuple:
    """Per-round layer metrics, and whether every round counted the same."""
    snaps = run.round_counts
    deltas = [snaps[0]] + [{k: b[k] - a[k] for k in b} for a, b in zip(snaps, snaps[1:])]
    steady = all(d == deltas[0] for d in deltas)
    out = {}
    for name in layers.span_names():
        out[f"{name}.calls"] = {"value": deltas[0][f"{name}.calls"], "unit": "count"}
        ms = run.tracer.self_s[name] * 1000.0 / run.rounds
        out[f"{name}.self_ms"] = {"value": ms, "unit": "ms"}
    for name in layers.COUNTS:
        out[name] = {"value": deltas[0][name], "unit": "count"}
    out["traced.instances_per_s"] = {"value": statistics.median(run.round_rates), "unit": "1/s"}
    out["traced.instance_p50_ms"] = {"value": statistics.median(run.times) * 1000.0, "unit": "ms"}
    return out, steady


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print 'ready' and exit (used to time setup_s)")
    ap.add_argument("--digest", action="store_true",
                    help="run one untimed round and print only the report digest")
    args = ap.parse_args(argv)

    _load_engine()
    import layers
    import workloads

    if args.setup_probe:
        workloads.build(args.workload, args.seed)
        workloads.warmup(args.workload)
        print("ready", flush=True)
        return 0

    setup = [] if args.digest else [_probe_setup(args.workload, args.seed)
                                     for _ in range(SETUP_PROBES)]
    ops = workloads.build(args.workload, args.seed)
    workloads.warmup(args.workload)
    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        tracer.install()
        for op in ops:
            op.limits.on_basis = tracer.on_basis
    run = Run(ops, tracer)
    run.go(0.0 if args.digest else args.seconds)
    if args.digest:
        print(f"{args.workload} seed={args.seed} sha256={run.digest()}")
        return 0

    if tracer is None:
        metrics, counts_steady = _end_to_end(run, setup), True
    else:
        metrics, counts_steady = _per_layer(run, layers)
    wrong = run.wrong()
    for k, why in sorted(wrong.items()):
        print(f"wrong: {ops[k].label}: {why}", file=sys.stderr)
    for k, msg in sorted(run.raised.items()):
        print(f"raised: {ops[k].label}: {msg}", file=sys.stderr)
    for label in run.unstable:
        print(f"unstable report: {label}", file=sys.stderr)
    if not counts_steady:
        print("per-layer counts differ between rounds", file=sys.stderr)

    attempted = run.rounds * len(ops)
    failed = sum(run.rounds for k in set(wrong) | set(run.raised))
    print(f"digest {args.workload} seed={args.seed} sha256={run.digest()} "
          f"rounds={run.rounds} ops={len(ops)} "
          f"measured_p50_ms={statistics.median(run.raw_times or [0]) * 1000:.3f}")
    print(json.dumps({
        "correct": not run.unstable and counts_steady,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
