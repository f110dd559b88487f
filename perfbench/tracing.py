"""Spans and counts for the traced run, recorded from the benchmark's side.

Wrappers replace public names in the package's modules, only for the traced
pass, and only names the package resolves at call time (a module global used
by another function).  Each span records its name, start, end, parent span
and op id; spans stay in memory until the run writes them out.  Exact counts
come from the wrapped calls' arguments and return values.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter, defaultdict
from math import comb
from time import perf_counter_ns


def _triples(c, args, res):
    c["conditions.triples"] += comb(args[0].n, 3)


def _quadruples(c, args, res):
    c["conditions.quadruples"] += comb(args[0].n, 4)


def _steps(c, args, res):
    c["scheme.reduce_zeros.steps"] += len(res.steps)


def _residues(c, args, res):
    c["solver.kappa_residues"] += sum(pc.modulus for pc in res.per_prime)
    c["solver.kappa_allowed"] += sum(len(pc.allowed) for pc in res.per_prime)


def _vertices(c, args, res):
    c["farey.vertices"] += len(res)


# (module, attribute, span name, counter); the span name is the module
# that defines the function, whichever module's global is wrapped
WRAPS = (
    ("conditions", "reduce_zeros", "scheme.reduce_zeros", _steps),
    ("conditions", "lift_system", "scheme.lift_system", None),
    ("conditions", "check_triangle", "conditions.check_triangle", _triples),
    ("conditions", "check_pluecker_full", "conditions.check_pluecker_full", _quadruples),
    ("conditions", "toz_report", "conditions.toz_report", None),
    ("conditions", "kappa_constraints", "solver.kappa_constraints", _residues),
    ("conditions", "construct_witness", "solver.construct_witness", None),
    ("conditions", "verify_system", "solver.verify_system", None),
    ("conditions", "factorize", "intarith.factorize", None),
    ("solver", "kappa_constraints", "solver.kappa_constraints", _residues),
    ("solver", "verify_system", "solver.verify_system", None),
    ("solver", "factorize", "intarith.factorize", None),
    ("solver", "crt", "intarith.crt", None),
    ("cli", "decide_torus", "conditions.decide_torus", None),
    ("cli", "crt", "intarith.crt", None),
    ("genus", "decide_torus", "conditions.decide_torus", None),
    ("farey", "candidate_vertices", "farey.candidate_vertices", _vertices),
    ("farey", "max_clique", "farey.max_clique", None),
)

# per-layer metric -> unit; the order BENCHMARK.json lists them in
LAYER_UNITS = {
    "conditions.check_pluecker_full.ms": "ms",
    "conditions.quadruples": "count",
    "conditions.check_triangle.ms": "ms",
    "conditions.triples": "count",
    "scheme.reduce_zeros.ms": "ms",
    "scheme.reduce_zeros.calls": "count",
    "scheme.reduce_zeros.steps": "count",
    "scheme.lift_system.ms": "ms",
    "solver.kappa_constraints.ms": "ms",
    "solver.kappa_constraints.calls": "count",
    "solver.kappa_residues": "count",
    "solver.kappa_allowed": "count",
    "solver.construct_witness.self_ms": "ms",
    "solver.verify_system.ms": "ms",
    "conditions.toz_report.ms": "ms",
    "intarith.factorize.ms": "ms",
    "intarith.factorize.calls": "count",
    "cli.run.ms": "ms",
    "cli.io.self_ms": "ms",
    "cli.stdout_bytes": "bytes",
    "intarith.crt.calls": "count",
    "intarith.crt.ms": "ms",
    "conditions.decide_torus.ms": "ms",
    "conditions.decide_torus.calls": "count",
    "genus.search.ms": "ms",
    "genus.search.self_ms": "ms",
    "farey.max_packing.ms": "ms",
    "farey.candidate_vertices.ms": "ms",
    "farey.max_clique.ms": "ms",
    "farey.max_clique.calls": "count",
    "farey.vertices": "count",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    def __init__(self):
        self.spans = []  # (span id, parent id or -1, op id, name, start ns, end ns)
        self.counts = Counter()
        self.op_id = -1
        self._stack = []
        self._next = 0
        self._saved = []

    def call(self, name, fn, args, kwargs):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, self.op_id, name, t0, t1))

    def _wrap(self, name, fn, counter):
        def wrapper(*args, **kwargs):
            res = self.call(name, fn, args, kwargs)
            if counter is not None:
                counter(self.counts, args, res)
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, modules) -> list:
        """Wrap every name in WRAPS; returns the names the package lacks."""
        missing = []
        for mod, attr, name, counter in WRAPS:
            m = modules[mod]
            fn = getattr(m, attr, None)
            if fn is None:
                missing.append(f"{mod}.{attr}")
                continue
            self._saved.append((m, attr, fn))
            setattr(m, attr, self._wrap(name, fn, counter))
        return missing

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._saved):
            setattr(m, attr, fn)
        self._saved.clear()

    def write(self, path: str, op_kinds: list) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["span", "parent", "op", "name", "start_ns", "end_ns"],
                    "op_kinds": op_kinds,
                    "spans": self.spans,
                },
                fh,
            )


def _self_times(spans):
    """Per span id: the time covered by its direct children, and the time
    covered by its direct children named conditions.decide_torus."""
    child = defaultdict(int)
    child_decide = defaultdict(int)
    for sid, parent, _, name, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
            if name == "conditions.decide_torus":
                child_decide[parent] += t1 - t0
    return child, child_decide


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict:
    child, child_decide = _self_times(tracer.spans)
    total, self_ns, calls = Counter(), Counter(), Counter()
    cli_io = 0
    for sid, _, _, name, t0, t1 in tracer.spans:
        total[name] += t1 - t0
        self_ns[name] += t1 - t0 - child[sid]
        calls[name] += 1
        if name == "cli.run":
            cli_io += t1 - t0 - child_decide[sid]
    values = {}
    for metric in LAYER_UNITS:
        layer, _, stat = metric.rpartition(".")
        if stat == "ms":
            values[metric] = total[layer] / 1e6
        elif stat == "self_ms":
            values[metric] = (cli_io if layer == "cli.io" else self_ns[layer]) / 1e6
        elif stat == "calls":
            values[metric] = calls[layer]
        else:
            values[metric] = tracer.counts[metric]
    values["trace.overhead_ratio"] = overhead_ratio
    return {m: {"value": v, "unit": LAYER_UNITS[m]} for m, v in values.items()}


def dominant_layers(tracer: Tracer, op_kinds: list, top: int = 4) -> dict:
    """Per op kind: the root op's self time, cli.io, and each layer's
    inclusive time, as shares of the kind's total op time; largest first."""
    child, child_decide = _self_times(tracer.spans)
    op_total = Counter()
    shares = defaultdict(Counter)
    for sid, parent, op, name, t0, t1 in tracer.spans:
        kind = op_kinds[op]
        if parent >= 0:
            shares[kind][name] += t1 - t0
            continue
        op_total[kind] += t1 - t0
        shares[kind][name + ".self"] += t1 - t0 - child[sid]
        if name == "cli.run":
            shares[kind]["cli.io"] += t1 - t0 - child_decide[sid]
    return {
        kind: [(name, ns / op_total[kind]) for name, ns in c.most_common(top)]
        for kind, c in shares.items()
    }
