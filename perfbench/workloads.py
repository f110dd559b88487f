"""The benchmark's workloads: inputs built from a seed, the one call each op
makes into the package, and the check of that call's output.

Every workload's pool is a list of rounds.  A round holds a fixed number of
ops of each input class, shuffled by the seed, so the pool has fixed class
shares; the runner makes whole passes over the pool.  Expected answers come
from each input's construction and outputs are re-verified with arith.py,
never with the package's own checks.
"""

from __future__ import annotations

import io
import json
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import comb, gcd

from arith import (
    canon,
    dets,
    distinct_classes,
    is_prime,
    next_prime_above,
    pos,
    primitive,
    realizable3,
    system_mismatch,
    triangle_failures,
)


@dataclass(frozen=True)
class Op:
    kind: str  # input class, e.g. "dup" or "endemic"
    arg: object  # what the package receives
    expect: object  # what the construction says the output must be


def _curves(system) -> list:
    return [None if c.is_empty else (c.p, c.q) for c in system]


class Workload:
    name = ""
    root = ""  # span name of one op in the traced run
    pool_rounds = 1  # rounds in the pool; a pass runs all of them
    trace_rounds = 1  # rounds replayed with --trace 1, each op untraced and traced

    def __init__(self, api, seed: int, workdir: str):
        self.api = api
        self.workdir = workdir
        rng = random.Random(f"{self.name}-{seed}")
        self.rounds = [self.make_round(rng, r) for r in range(self.pool_rounds)]

    def make_round(self, rng, r: int) -> list:
        raise NotImplementedError

    def call(self, op):
        raise NotImplementedError

    def check(self, op, out):
        """(answer, failure): answer is the op's yes/no result, failure is
        None when the output is correct, else a one-line reason."""
        raise NotImplementedError

    def count(self, op, out, counts) -> None:
        """Add per-op counts that no wrapped function sees (traced run)."""

    def probe_ops(self) -> list:
        """(label, op) pairs run once, untimed and uncounted, after the loop."""
        return []


class DecideWide(Workload):
    """decide_torus on 16- to 44-curve schemes in four classes.

    yes = realizable, no = refuted.  Per round of 20 ops (shares 45/20/25/10):
    9 realizable 44-curve schemes over 10 distinct classes, 4 or 5 curves
    each (zero reduction dominates), 4 realizable 28-curve schemes with
    distinct classes (the full Pluecker check dominates), 5 refuted by
    Pluecker only and 2 refuted by the triangle condition.  Curve counts
    are fixed per class so that times cluster, and the shares put every
    median inside a cluster: op_p50 and yes_p50 among the reduction
    schemes, no_p50 among the Pluecker refutations, op_p90 among the
    28-curve schemes.
    """

    name = "decide_wide"
    root = "conditions.decide_torus"
    pool_rounds = 6
    trace_rounds = 4
    LADDER = {
        "dup": (44,) * 9,
        "distinct": (28,) * 4,
        "pluecker": (28,) * 5,
        "triangle": (16, 20),
    }
    DUP_CLASSES = 10
    CMAX = 20  # vector coordinates in [-CMAX, CMAX]

    def make_round(self, rng, r):
        ops = [
            getattr(self, "_" + kind)(rng, n)
            for kind, ns in self.LADDER.items()
            for n in ns
        ]
        rng.shuffle(ops)
        return ops

    def _dup(self, rng, n):
        # Each class is used n // DUP_CLASSES or one more times: the zero
        # entries, and so the reduction's work, are the same for every seed.
        base = distinct_classes(rng, self.DUP_CLASSES, self.CMAX)
        picks = [base[i % len(base)] for i in range(n)]
        rng.shuffle(picks)
        vecs = [(p, q) if rng.random() < 0.5 else (-p, -q) for p, q in picks]
        return Op("dup", self.api.new_scheme(n, dets(vecs)), True)

    def _distinct(self, rng, n):
        vecs = distinct_classes(rng, n, self.CMAX)
        return Op("distinct", self.api.new_scheme(n, dets(vecs)), True)

    def _pluecker(self, rng, n):
        # Adding the lcm L of all entries to m_{n-1,n} keeps every pairwise
        # gcd (each entry divides L), so every triple passes, and changes
        # mu_{i,j,n-1,n} by m_ij * L != 0: exactly C(n-2,2) quadruples fail.
        while True:
            e = dets(distinct_classes(rng, n, self.CMAX))
            lcm = 1
            for x in e:
                lcm = lcm * abs(x) // gcd(lcm, x)
            e[pos(n - 1, n)] += lcm
            if e[pos(n - 1, n)] != 0:
                break
        want = [(i, j, n - 1, n) for j in range(2, n - 1) for i in range(1, j)]
        if len(want) != comb(n - 2, 2):
            raise AssertionError("Pluecker reason set has the wrong size")
        return Op("pluecker", self.api.new_scheme(n, e), ("pluecker", sorted(want)))

    def _triangle(self, rng, n):
        while True:
            e = dets(distinct_classes(rng, n, self.CMAX))
            t = rng.randrange(len(e))
            e[t] += rng.choice((-1, 1))
            if e[t] == 0:
                continue
            want = triangle_failures(n, e)
            if want:
                return Op("triangle", self.api.new_scheme(n, e), ("triangle", want))

    def call(self, op):
        return self.api.decide_torus(op.arg)

    def check(self, op, v):
        s = op.arg
        if op.expect is True:
            if not v.realizable or v.reasons or v.witness is None:
                return True, "realizable scheme refuted"
            return True, system_mismatch(s.n, s.entries, _curves(v.witness))
        if v.realizable or v.witness is not None:
            return False, "refuted scheme called realizable"
        kind, want = op.expect
        if kind == "pluecker":
            got = [(r.i, r.j, r.k, r.l) for r in v.reasons
                   if type(r).__name__ == "FailedPluecker"]
            got.sort()
        else:
            got = [(r.i, r.j, r.k) for r in v.reasons
                   if type(r).__name__ == "FailedTriangle"]
        if len(got) != len(v.reasons) or got != want:
            return False, f"{kind} reasons differ from the construction"
        return False, None


def _parse_json(text: str):
    # The probe input carries a 5000-digit integer; lift the int-string limit
    # only while the benchmark parses output, never while the package runs.
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.loads(text)
    finally:
        sys.set_int_max_str_digits(old)


class CheckArith(Workload):
    """`toruscurves check FILE` in-process on schemes with a large g_123.

    yes = realizable (exit 0), no = FailedToz (exit 1).  Per round of 29
    ops: 10 "wide" 6-schemes built from vectors with g_123 a prime power
    (residue modulus p^(nu+1) near 8e3; the kappa scan dominates), 4
    FailedToz 3-schemes (a,b,c)*2*p^nu with a,b,c odd, and realizable
    3-schemes (a,b,c)*g: 5 with moduli near 2e3, 5 near 1.6e4, 3 with two
    prime factors and 2 with three; the first round adds (1,1,2)*1155 with
    four (the CRT product the CLI prints dominates).  The shares put op_p50
    and yes_p50 among the wide schemes and op_p90 among the 1.6e4 prime
    powers.

    The g of each class come from a short table whose entries differ in
    cost by up to 1.5x.  Over the pool every entry is used equally often,
    in seeded order, so that a class costs the same for every seed; the
    seed picks the order, the (a,b,c) and the wide schemes' vectors.
    """

    name = "check_arith"
    root = "cli.run"
    pool_rounds = 4
    trace_rounds = 1
    # (p, nu) for g = p^nu; the residue modulus is p^(nu+1)
    PP_SMALL = ((47, 1), (3, 6), (13, 2), (7, 3), (2, 10))
    PP_MID = ((89, 1), (83, 1), (19, 2), (97, 1), (2, 12))
    PP_BIG = ((127, 1), (131, 1), (7, 4), (5, 5), (2, 13))
    OMEGA2 = (3 * 37, 7 * 17, 5 * 23, 7 * 19)
    OMEGA3 = (165,)
    # pairwise coprime; one even member makes (a,b,c)*g realizable for any g
    EVEN_ABC = ((1, 2, 3), (2, 3, 5), (3, 4, 5), (2, 5, 7), (1, 1, 2),
                (1, 2, 5), (3, 5, 8))
    # pairwise coprime and all odd: (a,b,c)*g fails at p = 2 when g is even
    ODD_ABC = ((1, 3, 5), (3, 5, 7), (1, 1, 3), (1, 5, 7), (3, 7, 11),
               (1, 3, 7))
    WIDE_N = 6
    # (class, its g values, ops per round); toz uses 2 * g, g odd
    DRAWN = (
        ("wide", tuple(p**nu for p, nu in PP_MID), 10),
        ("toz", tuple(p**nu for p, nu in PP_MID if p != 2), 4),
        ("pp_small", tuple(p**nu for p, nu in PP_SMALL), 5),
        ("pp_big", tuple(p**nu for p, nu in PP_BIG), 5),
        ("omega2", OMEGA2, 3),
    )
    # Parent failures, run once after the timed loop and reported, not
    # counted: the first is refused by the residue enumeration cap (exit 2),
    # the second raises ValueError out of cli.run.  Both are realizable.
    PROBES = (
        ("(2,3,5)*101^4", 3, [2 * 101**4, 3 * 101**4, 5 * 101**4]),
        ("5000-digit entry", 3, None),
    )

    def __init__(self, api, seed, workdir):
        self.check_closed_form(api)
        super().__init__(api, seed, workdir)

    @staticmethod
    def check_closed_form(api):
        """Cross-check the n = 3 closed form against the brute-force oracle
        on small members of the scaled family."""
        for g in range(1, 25):
            for a, b, c in CheckArith.EVEN_ABC + CheckArith.ODD_ABC:
                x, y, z = a * g, -b * g, c * g
                got = api.oracle_realizable(api.new_scheme(3, [x, y, z])).realizable
                if got != realizable3(x, y, z):
                    raise AssertionError(f"closed form disagrees with oracle on {(x, y, z)}")

    def make_round(self, rng, r):
        if r == 0:
            self._draws = self._balanced_draws(rng)
        g_of = {kind: self._draws[kind][r * count:(r + 1) * count]
                for kind, _, count in self.DRAWN}
        specs = [("wide", self._wide(rng, self.WIDE_N, g)) for g in g_of["wide"]]
        for g in g_of["toz"]:
            specs.append(("toz", self._scaled(rng, rng.choice(self.ODD_ABC), 2 * g)))
        for kind in ("pp_small", "pp_big", "omega2"):
            for g in g_of[kind]:
                specs.append((kind, self._scaled(rng, rng.choice(self.EVEN_ABC), g)))
        for _ in range(2):
            g = rng.choice(self.OMEGA3)
            specs.append(("omega3", self._scaled(rng, rng.choice(self.EVEN_ABC), g)))
        if r == 0:
            specs.append(("omega4", self._scaled(rng, (1, 1, 2), 1155)))
        rng.shuffle(specs)
        ops = []
        for i, (kind, e) in enumerate(specs):
            n = 3 if kind != "wide" else self.WIDE_N
            yes = kind != "toz"
            if n == 3 and realizable3(*e) != yes:
                raise AssertionError(f"{kind} input {e} has the wrong verdict")
            path = os.path.join(self.workdir, f"r{r}_{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"n": n, "entries": e}, fh)
            ops.append(Op(kind, path, (yes, n, e)))
        return ops

    def _balanced_draws(self, rng) -> dict:
        """Per drawn class, the g of its ops over the whole pool: each
        table entry equally often, shuffled."""
        draws = {}
        for kind, table, count in self.DRAWN:
            total = count * self.pool_rounds
            if total % len(table):
                raise AssertionError(f"{kind}: {total} ops do not split evenly over its table")
            seq = list(table) * (total // len(table))
            rng.shuffle(seq)
            draws[kind] = seq
        return draws

    @staticmethod
    def _scaled(rng, abc, g):
        abc = list(abc)
        rng.shuffle(abc)
        return [x * g * rng.choice((-1, 1)) for x in abc]

    @staticmethod
    def _wide(rng, n, g):
        # (1,0), (r2, g*a), (r3, g*b) with gcd(a, b) = 1 make g_123 = g.
        while True:
            a, b = rng.randint(1, 9), rng.randint(1, 9)
            r2, r3 = rng.randint(-50, 50), rng.randint(-50, 50)
            if gcd(a, b) != 1 or gcd(r2, g * a) != 1 or gcd(r3, g * b) != 1:
                continue
            vecs = [(1, 0), (r2, g * a), (r3, g * b)]
            vecs += [primitive(rng, 50) for _ in range(n - 3)]
            e = dets(vecs)
            if 0 not in e:
                return e

    def call(self, op):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = self.api.cli_run(["check", op.arg])
        return rc, out.getvalue()

    def check(self, op, out):
        rc, text = out
        yes, n, entries = op.expect
        want_rc = 0 if yes else 1
        if rc != want_rc:
            return yes, f"exit {rc}, want {want_rc}"
        try:
            doc = _parse_json(text)
        except ValueError:
            return yes, "stdout is not JSON"
        if yes:
            if doc.get("status") != "torus" or doc.get("reasons") != []:
                return yes, "realizable scheme not reported as torus"
            system = [None if w == "empty" else tuple(w) for w in doc.get("witness", [])]
            return yes, system_mismatch(n, entries, system)
        reasons = doc.get("reasons", [])
        if doc.get("status") != "not_torus" or "witness" in doc:
            return yes, "FailedToz scheme not reported as not_torus"
        if len(reasons) != 1 or reasons[0].get("kind") != "toz" or reasons[0].get("prime") != 2:
            return yes, "want exactly one toz reason at p = 2"
        return yes, None

    def count(self, op, out, counts):
        counts["cli.stdout_bytes"] += len(out[1])  # json.dump writes ASCII

    def probe_ops(self) -> list:
        ops = []
        for i, (label, n, e) in enumerate(self.PROBES):
            path = os.path.join(self.workdir, f"probe{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                if e is None:
                    digits = "1" + "0" * 4999
                    fh.write('{"n": 3, "entries": [%s, 1, 1]}' % digits)
                    e = _parse_json("[%s, 1, 1]" % digits)
                else:
                    json.dump({"n": n, "entries": e}, fh)
            ops.append((label, Op("probe", path, (realizable3(*e), n, e))))
        return ops


class Search(Workload):
    """bounded_decomposition_search on endemic and decomposable schemes.

    yes = a torus+torus split was found, no = the search exhausted.  The
    pool of 4 rounds of 293 ops holds 17 endemic 4-schemes
    (q; pq,pq; pq,pq,p), which admit no split, at bounds 12, 13, 14 and
    4, 5, 5 times 16, 17, 18; 152 endemic 4-schemes at bound 8; 2 non-torus
    5-schemes at bound 3; and 1001 non-torus 4-schemes at bound 8.  Each
    non-torus scheme is built as a sum whose left summand lies within the
    bound, so a split exists.  The endemic (p, q) follow a fixed schedule,
    the same for every seed, because the cost depends on the pair.

    A found 4-scheme takes 0.5 to 20 ms, depending on where the split
    lies, so its tail moves with the seed.  The bound-8 endemic searches
    (8 to 14 ms, above all but a few percent of that tail) hold op_p90 and
    no_p50; op_p50 and yes_p50 fall among the found 4-schemes, where 1001
    of them keep the seed's share in the median small.
    """

    name = "search"
    root = "genus.search"
    pool_rounds = 4
    trace_rounds = 1
    ROUND_OPS = 293
    PAIRS = [(p, q) for p in (3, 5, 7, 11, 13) for q in (3, 5, 7, 11, 13) if p != q]
    ENDEMIC_BOUNDS = (12, 13, 14) + (16,) * 4 + (17,) * 5 + (18,) * 5
    FOUND5_ROUNDS = (0, 2)
    LOW_BOUND, LOW_OPS = 8, 38  # bound-8 endemic searches per round

    def make_round(self, rng, r):
        ops = []
        for i in range(r, len(self.ENDEMIC_BOUNDS), self.pool_rounds):
            p, q = self.PAIRS[7 * i % len(self.PAIRS)]
            e = [q, p * q, p * q, p * q, p * q, p]
            ops.append(Op("endemic", (self.api.new_scheme(4, e), self.ENDEMIC_BOUNDS[i]), False))
        for i in range(r * self.LOW_OPS, (r + 1) * self.LOW_OPS):
            p, q = self.PAIRS[i % len(self.PAIRS)]
            e = [q, p * q, p * q, p * q, p * q, p]
            ops.append(Op("endemic8", (self.api.new_scheme(4, e), self.LOW_BOUND), False))
        if r in self.FOUND5_ROUNDS:
            e = self._split(rng, 5, 3, 1, 2)
            ops.append(Op("found5", (self.api.new_scheme(5, e), 3), True))
        while len(ops) < self.ROUND_OPS:
            e = self._split(rng, 4, 8, 2, 3)
            ops.append(Op("found4", (self.api.new_scheme(4, e), 8), True))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _split(rng, n, bound, lmax, rmax):
        # left within the bound plus any realizable right; a triple failing
        # the triangle condition certifies the sum is not torus-realizable
        while True:
            left = dets([primitive(rng, lmax) for _ in range(n)])
            if max(map(abs, left)) > bound:
                continue
            right = dets([primitive(rng, rmax) for _ in range(n)])
            e = [a + b for a, b in zip(left, right)]
            if 0 not in e and triangle_failures(n, e):
                return e

    def call(self, op):
        s, bound = op.arg
        return self.api.search(s, bound)

    def check(self, op, hit):
        s, bound = op.arg
        if not op.expect:
            return False, None if hit is None else "endemic scheme decomposed"
        if hit is None:
            return False, "search exhausted although a split exists"
        if [a + b for a, b in zip(hit.left.entries, hit.right.entries)] != list(s.entries):
            return True, "left + right differs from the input"
        if any(abs(x) > bound for x in hit.left.entries):
            return True, "left summand exceeds the bound"
        for part, verdict in ((hit.left, hit.left_verdict), (hit.right, hit.right_verdict)):
            if not verdict.realizable or verdict.witness is None:
                return True, "summand not realizable"
            bad = system_mismatch(part.n, part.entries, _curves(verdict.witness))
            if bad:
                return True, "summand " + bad
        return True, None


class Packing(Workload):
    """max_packing(d, jobs=1) for every d in 8..26 once per round, and
    d = 17 and 25 three times, in seeded order.  yes = the packing attains
    p+1, p the smallest prime above d.

    Every op of one d costs about the same, so the pool's times form one
    cluster per d.  The extra ops put op_p50 and yes_p50 inside the d = 17
    cluster, op_p90 inside d = 25 and no_p50 inside d = 19, and make the
    first three median over 15 ops each; with d = 8..26 alone, yes_p50 fell
    between the d = 16 and d = 17 clusters, which lie 1.5x apart.
    """

    name = "packing"
    root = "farey.max_packing"
    pool_rounds = 5
    trace_rounds = 1
    DS = range(8, 27)
    EXTRA = (17, 17, 25, 25)

    def make_round(self, rng, r):
        ds = list(self.DS) + list(self.EXTRA)
        rng.shuffle(ds)
        return [Op("packing", d, None) for d in ds]

    def call(self, op):
        return self.api.max_packing(op.arg, jobs=1)

    def check(self, op, res):
        d, w = op.arg, res.witness
        p = next_prime_above(d)
        yes = res.size == p + 1
        if res.size != len(w):
            return yes, "size differs from the witness length"
        if len({canon(tuple(v)) for v in w}) != len(w):
            return yes, "witness repeats a class"
        if any(gcd(v[0], v[1]) != 1 for v in w):
            return yes, "witness class not primitive"
        for i in range(len(w)):
            for j in range(i + 1, len(w)):
                det = abs(w[i][0] * w[j][1] - w[j][0] * w[i][1])
                if not 1 <= det <= d:
                    return yes, f"|det| = {det} outside [1, {d}]"
        if res.size > p + 1:
            return yes, f"size {res.size} exceeds the bound p+1 = {p + 1}"
        if is_prime(d + 1) and not yes:
            return yes, f"size {res.size} below p+1 = {p + 1} with d+1 prime"
        return yes, None


WORKLOADS = {w.name: w for w in (DecideWide, CheckArith, Search, Packing)}
