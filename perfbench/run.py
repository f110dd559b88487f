"""Closed-loop benchmark of the toruscurves package, run from a checkout root:

    python3 perfbench/run.py --workload decide_wide --seed 1 --seconds 30 --trace 0

One caller, one process: each op is one call into the package's public API,
made only after the previous op returned, and every output is checked.
With --trace 0 the run cycles through the workload's pool of ops for
--seconds (and at least one whole pass), and reports the
end-to-end metrics.  Every timing is normalized to the speed of a fixed
reference kernel, timed right before and right after each timed call (see
reference_kernel).  With --trace 1 it replays a fixed number of rounds,
running each op once untraced and once with span wrappers installed, and
reports per-layer times and exact counts.  The last stdout line is the JSON
result; the lines before it print the same numbers for a reader.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracing import Tracer, dominant_layers, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
# Median time of reference_kernel() on the machine the benchmark was tuned
# on (Python 3.11.7, 2 vCPUs).  Normalized times read as ms or s on a
# machine where the kernel takes this long.
REFERENCE_MS = 0.96

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "yes_p50_ms": "ms",
    "no_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def reference_kernel() -> int:
    """A fixed ~1 ms of pure-Python integer work: gcd, modular powers and
    big products.  It allocates no container objects, so neither the cyclic
    garbage collector nor the package's heap changes its cost, and it never
    calls into the package.

    The benchmark runs on a shared host whose speed drifts by up to 1.5x for
    minutes at a time, which moves every raw timing of a run together.  Each
    timed call is bracketed by two runs of this kernel, and the call's
    normalized time is its raw time times REFERENCE_MS over the kernel's
    mean time around it.  In a 150 s test on the tuning machine, the median
    raw time of a fixed decide_torus call over 10 s windows spread by 40%
    (IQR over median), and its median normalized time by 1.6%.
    """
    x, acc = 1234567, 0
    for i in range(1200):
        x = (x * 1103515245 + 12345) % 2147483648
        a = x * 99991 - i
        acc += math.gcd(a, x + 7) + pow(a % 1000003 + 2, 7, 1000003) + (a * a) // (x + 1) % 97
    return acc


REFERENCE_VALUE = 593001394  # what reference_kernel() returns


def reference_seconds() -> float:
    t0 = perf_counter()
    value = reference_kernel()
    seconds = perf_counter() - t0
    if value != REFERENCE_VALUE:
        raise AssertionError("reference kernel returned a wrong value")
    return seconds


def normalize(seconds: float, before: float, after: float) -> float:
    """Raw seconds scaled to the reference speed (see reference_kernel)."""
    return seconds * REFERENCE_MS * 1e-3 / ((before + after) / 2)


def load_api():
    """Import the package afresh from ROOT/src; import time is set-up time."""
    for name in [m for m in sys.modules if m.split(".")[0] == "toruscurves"]:
        del sys.modules[name]
    pkg = importlib.import_module("toruscurves")
    if Path(pkg.__file__).resolve().parent != ROOT / "src" / "toruscurves":
        raise ImportError(f"toruscurves imported from {pkg.__file__}, not from this checkout")
    modules = {
        m: importlib.import_module(f"toruscurves.{m}")
        for m in ("scheme", "conditions", "solver", "intarith", "cli", "genus", "farey")
    }
    return SimpleNamespace(
        modules=modules,
        new_scheme=pkg.new_scheme,
        decide_torus=pkg.decide_torus,
        oracle_realizable=pkg.oracle_realizable,
        search=pkg.bounded_decomposition_search,
        max_packing=pkg.max_packing,
        cli_run=modules["cli"].run,
    )


class Recorder:
    """Runs ops one after another, timing only the call into the package.

    With normalized=True every call is bracketed by two reference-kernel
    runs and its recorded time is normalized; otherwise it is raw.  The
    kernel run after one call, made before that call's output check, is
    also the one before the next call.
    """

    def __init__(self, wl, tracer=None, normalized=False):
        self.wl = wl
        self.tracer = tracer
        self.normalized = normalized
        self.records = []  # (kind, seconds, answer, failure)
        self.raw_seconds = []  # raw time of each record
        self.last_reference = None

    def run(self, op):
        wl, tracer = self.wl, self.tracer
        failure = answer = None
        before = 0.0
        if self.normalized:
            before = self.last_reference or reference_seconds()
        t0 = perf_counter()
        try:
            if tracer is None:
                out = wl.call(op)
            else:
                tracer.op_id = len(self.records)
                out = tracer.call(wl.root, wl.call, (op,), {})
        except Exception as exc:  # a failed op is counted, not fatal
            failure = f"raised {type(exc).__name__}"
        seconds = perf_counter() - t0
        self.raw_seconds.append(seconds)
        if self.normalized:
            self.last_reference = reference_seconds()
            seconds = normalize(seconds, before, self.last_reference)
        if failure is None:
            try:
                answer, failure = wl.check(op, out)
            except Exception as exc:
                failure = f"output check raised {type(exc).__name__}: {exc}"
            if tracer is not None:
                wl.count(op, out, tracer.counts)
        self.records.append((op.kind, seconds, answer, failure))

    def kinds(self) -> list:
        return [r[0] for r in self.records]

    def seconds(self) -> float:
        return sum(r[1] for r in self.records)


def end_to_end(per_op: list, setup_s: float) -> dict:
    """Metrics over the pool's ops, each timed by the median of its
    normalized executions."""
    ok = [r for r in per_op if r[3] is None]
    times = sorted(r[1] * 1e3 for r in ok)

    def p50(rows):
        return statistics.median(r[1] * 1e3 for r in rows) if rows else 0.0

    values = {
        "setup_s": setup_s,
        "ops_per_s": len(ok) / sum(r[1] for r in ok) if ok else 0.0,
        "op_p50_ms": statistics.median(times) if times else 0.0,
        "op_p90_ms": statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else 0.0,
        "yes_p50_ms": p50([r for r in ok if r[2]]),
        "no_p50_ms": p50([r for r in ok if not r[2]]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {m: {"value": v, "unit": END_TO_END_UNITS[m]} for m, v in values.items()}


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")


def setup(name: str, seed: int, workdir: Path):
    """Set up SETUP_REPEATS times; return the last workload and the median
    normalized set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = reference_seconds()
        t0 = perf_counter()
        api = load_api()
        wl = WORKLOADS[name](api, seed, str(workdir))
        seconds = perf_counter() - t0
        times.append(normalize(seconds, before, reference_seconds()))
    return wl, statistics.median(times)


def measure(wl, seconds: float):
    """Cycle through the pool until `seconds` have passed and every op has
    run at least once.

    Returns the recorder of every execution, the number of executions, and
    per op of the pool one row: the median of its normalized times, or its
    first failed execution.  A median, unlike a minimum, does not move with
    the number of executions a run fits.
    """
    pool = [op for rnd in wl.rounds for op in rnd]
    rec = Recorder(wl, normalized=True)
    rows = [[] for _ in pool]
    deadline = perf_counter() + seconds
    i = 0
    while i < len(pool) or perf_counter() < deadline:
        rec.run(pool[i % len(pool)])
        rows[i % len(pool)].append(rec.records[-1])
        i += 1
    per_op = []
    for runs in rows:
        failed = [r for r in runs if r[3] is not None]
        if failed:
            per_op.append(failed[0])
        else:
            kind, _, answer, _ = runs[0]
            per_op.append((kind, statistics.median(r[1] for r in runs), answer, None))
    return rec, i, per_op


def traced(wl, outdir: Path, seed: int):
    """Run each op of the first trace_rounds rounds twice, untraced and with
    the span wrappers installed, alternating which goes first so that neither
    side gets the warmer caches."""
    plain, tracer = Recorder(wl), Tracer()
    rec = Recorder(wl, tracer)
    missing = []
    ops = [op for rnd in wl.rounds[: wl.trace_rounds] for op in rnd]
    for i, op in enumerate(ops):
        for side in ((plain, rec) if i % 2 == 0 else (rec, plain)):
            if side is plain:
                plain.run(op)
                continue
            missing = tracer.install(wl.api.modules)
            try:
                rec.run(op)
            finally:
                tracer.uninstall()
    outdir.mkdir(parents=True, exist_ok=True)
    tracer.write(str(outdir / f"spans-{wl.name}-seed{seed}.json.gz"), rec.kinds())
    return plain, rec, tracer, missing


def report_traced(wl, seed: int, outdir: Path):
    plain, rec, tracer, missing = traced(wl, outdir, seed)
    metrics = layer_metrics(tracer, rec.seconds() / plain.seconds())
    print_table(f"workload {wl.name}  seed {seed}  traced: {len(rec.records)} ops, "
                f"{wl.trace_rounds} round(s), each op also run untraced", metrics)
    if missing:
        print("  not wrapped (absent from the package): " + ", ".join(missing))
    print("  dominant layers (share of op time per input class):")
    for kind, top in sorted(dominant_layers(tracer, rec.kinds()).items()):
        print(f"    {kind:9s} " + "  ".join(f"{n} {s:.2f}" for n, s in top))
    return metrics, plain.records + rec.records


def report_end_to_end(wl, seed: int, seconds: float, setup_s: float):
    rec, executions, per_op = measure(wl, seconds)
    metrics = end_to_end(per_op, setup_s)
    by_kind = {}
    for kind, sec, _, failure in per_op:
        if failure is None:
            by_kind.setdefault(kind, []).append(sec * 1e3)
    print_table(f"workload {wl.name}  seed {seed}  {len(per_op)} ops, {executions} executions ("
                + ", ".join(f"{k} {len(v)}" for k, v in sorted(by_kind.items())) + ")", metrics)
    print("  times are normalized to the reference kernel at "
          f"{REFERENCE_MS} ms; this run's kernel median was "
          f"{statistics.median(reference_seconds() for _ in range(50)) * 1e3:.4g} ms, "
          f"raw op p50 {statistics.median(rec.raw_seconds) * 1e3:.4g} ms over all executions")
    print("  p50 ms per input class: " + "  ".join(
        f"{k} {statistics.median(v):.4g}" for k, v in sorted(by_kind.items())))
    for label, op in wl.probe_ops():
        probe = Recorder(wl)
        probe.run(op)
        print(f"  known-failure probe {label}: {probe.records[0][3] or 'ok'} (not counted)")
    return metrics, rec.records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "toruscurves" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'toruscurves'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".perfbench"
    workdir = work / f"inputs-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl, setup_s = setup(args.workload, args.seed, workdir)
        if args.trace:
            metrics, records = report_traced(wl, args.seed, work)
        else:
            metrics, records = report_end_to_end(wl, args.seed, args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = Counter(f"{k}: {f}" for k, _, _, f in records if f is not None)
    failed = sum(failures.values())
    print(f"  fail_ratio {failed / len(records):.6g} ({failed}/{len(records)})")
    for what, n in failures.most_common():
        print(f"  failed {n}x  {what}")
    print(f"  output check: {'ok' if not failed else 'FAILED'}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
