#!/usr/bin/env python3
"""Benchmark of subsetcurrents: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload product --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The run imports the package from the
checkout's `src/`, builds the workload's inputs from the seed, and replays
whole passes of its ops in one closed loop (one client, one process, no
threads) until at least --seconds have passed.  It applies the correctness
gate, prints a readable summary, and ends with one JSON line: the
end-to-end metrics with --trace 0, or the per-layer metrics with --trace 1,
where traced and untraced passes alternate.  Per-op timings and sizes, the
report digest and (traced) the spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import ops as oprun
import workloads
from tracer import Tracer, metric_names

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
PACKAGE = oprun.PACKAGE

# Set-ups before the loop, and one more after every SETUP_EVERY passes, so
# that the median set-up time samples the machine across the whole run.
SETUP_FIRST = 3
SETUP_EVERY = 2
# The gate compares every op's report across passes, and a traced run needs
# an untraced and a traced pass, so two at least.
MIN_PASSES = 2
# The tail percentile, the same on every workload, run and commit.
TAIL_PCT = 0.9


def set_up(workload: workloads.Workload, seed: int, run_dir: Path) -> list[workloads.Op]:
    """Import the package and its CLI afresh, write the seeded inputs, run the warm-up op."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    if Path(pkg.__file__).resolve().parent != SRC / PACKAGE:
        raise ImportError(f"{PACKAGE} was imported from {pkg.__file__}, not {SRC}")
    ops = workloads.build(workload.name, seed, run_dir)
    oprun.run(ops[workload.warmup])
    return ops


@dataclass
class Attempt:
    op: int
    traced: bool
    seconds: float
    failure: oprun.OpFailed | None


def run_passes(set_up_again, seconds: float, tracer: Tracer | None):
    """Closed loop over whole passes; traced passes alternate with untraced ones.

    `set_up_again()` sets up afresh and returns the ops; it runs before the
    first pass and after every SETUP_EVERY passes, never inside one.
    """
    ops = set_up_again()
    attempts: list[Attempt] = []
    digests: dict[int, str] = {}
    reports: dict[int, bytes] = {}
    start = perf_counter()
    passes = 0
    while True:
        traced = tracer is not None and passes % 2 == 1
        gc.collect()
        if traced:
            tracer.install()
        try:
            for i, op in enumerate(ops):
                t0 = perf_counter()
                try:
                    report, failure = oprun.run(op), None
                except oprun.OpFailed as exc:
                    report, failure = None, exc
                dt = perf_counter() - t0
                digest = (hashlib.sha256(report).hexdigest() if failure is None
                          else f"failed:{failure.cls}")
                if digests.setdefault(i, digest) != digest:
                    failure = oprun.OpFailed("NondeterministicReport",
                                             "report differs from the first pass", False)
                if report is not None:
                    reports[i] = report
                attempts.append(Attempt(i, traced, dt, failure))
        finally:
            if traced:
                tracer.uninstall()
        passes += 1
        if passes >= MIN_PASSES and perf_counter() - start >= seconds:
            break
        if passes % SETUP_EVERY == 0:
            ops = set_up_again()
    return ops, attempts, digests, reports, passes


def service_times(attempts: list[Attempt], traced: bool) -> list[float]:
    """One value per op that completed: its fastest pass in the run.

    On a shared machine the speed of the same code switches between a fast
    and a slow state, up to 1.5x apart, from interference outside the
    process.  An op's fastest pass is its service time with that
    interference filtered out, whenever the run sees the fast state at all.
    """
    best: dict[int, float] = {}
    for a in attempts:
        if a.traced == traced and a.failure is None:
            best[a.op] = min(best.get(a.op, a.seconds), a.seconds)
    return list(best.values())


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-13:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def quantile(xs: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.  Unlike a single order statistic it does not jump
    from one op to the next when two ops of a mixed pass trade places."""
    xs = sorted(xs)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        setup_times = []

        def timed_set_up():
            t0 = perf_counter()
            ops = set_up(workload, args.seed, run_dir)
            setup_times.append(perf_counter() - t0)
            return ops

        for _ in range(SETUP_FIRST - 1):
            timed_set_up()
        tracer = Tracer() if args.trace else None
        ops, attempts, digests, reports, passes = run_passes(timed_set_up, args.seconds, tracer)

        # Untimed and untraced: sizes behind each op, and the second-route checks.
        op_sizes = []
        for i, op in enumerate(ops):
            try:
                op_sizes.append(oprun.sizes(op, reports.get(i)))
            except Exception as exc:  # a diagnostic only; the op's own outcome stands
                op_sizes.append({"error": f"{type(exc).__name__}: {exc}"})
            try:
                oprun.validate(op)
            except oprun.OpFailed as exc:
                for a in attempts:
                    if a.op == i:
                        a.failure = exc
    except ImportError as exc:
        print(f"cannot import {PACKAGE} from {SRC}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failures: dict[str, int] = {}
    for a in attempts:
        if a.failure is not None:
            failures[a.failure.cls] = failures.get(a.failure.cls, 0) + 1
    correct = all(a.failure is None or a.failure.refused for a in attempts)
    digest = hashlib.sha256("".join(digests[i] for i in range(len(ops))).encode()).hexdigest()
    untraced = [a for a in attempts if not a.traced]
    lat = service_times(attempts, traced=False)
    if not lat:
        print(f"no op of {workload.name} completed: {failures}", file=sys.stderr)
        return 1
    setup_s = statistics.median(setup_times)
    lines = [f"workload {workload.name}  seed {args.seed}  passes {passes}  "
             f"attempted {len(attempts)}  failed {sum(failures.values())} {failures}",
             f"  report digest sha256:{digest}"]

    if tracer is None:
        completed = sum(1 for a in untraced if a.failure is None)
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_p50_s": (quantile(lat, 0.5), "s"),
            "op_tail_s": (quantile(lat, TAIL_PCT), "s"),
            "ops_per_s": (len(lat) / sum(lat), "1/s"),
            "completed_ratio": (completed / len(untraced), "ratio"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        notes = {
            "setup_s": f"median of {len(setup_times)} set-ups",
            "op_p50_s": f"Harrell-Davis over {len(lat)} ops, {completed} executions",
            "op_tail_s": f"p{TAIL_PCT * 100:g}, Harrell-Davis over {len(lat)} ops, "
                         f"{completed} executions",
            "ops_per_s": "completed ops / their summed service time",
            "completed_ratio": f"failed_ratio {1 - completed / len(untraced):.4f}",
        }
    else:
        traced_ops = sum(1 for a in attempts if a.traced)
        traced_lat = service_times(attempts, traced=True)
        layer = tracer.layer_metrics(traced_ops)
        layer["trace.overhead_ratio"] = quantile(traced_lat, 0.5) / quantile(lat, 0.5)
        units = {name: unit for name, unit, _ in metric_names()}
        metrics = {name: (value, units[name]) for name, value in layer.items()}
        notes = {}
        (OUT / f"{workload.name}-spans.json").write_text(json.dumps(tracer.dump()))
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"  {name:<44} {value:>14.6g} {unit}{note}")

    per_op = []
    for i, op in enumerate(ops):
        mine = [a for a in attempts if a.op == i]
        per_op.append({
            "name": op.name,
            "argv": [s.replace(str(run_dir), "<inputs>") for s in op.argv or []],
            "sizes": op_sizes[i],
            "latencies_s": [a.seconds for a in mine if not a.traced],
            "traced_latencies_s": [a.seconds for a in mine if a.traced],
            "failures": sorted({a.failure.cls for a in mine if a.failure is not None}),
        })
    detail = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "passes": passes, "report_digest": digest, "setup_s": setup_times,
              "failures": failures, "metrics": {k: v for k, (v, _) in metrics.items()},
              "ops": per_op}
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))

    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": len(attempts),
        "failed": sum(failures.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
