"""Scaling series for the Pluecker refutation stage, zero reduction, the
kappa classes, Farey packing and the bounded decomposition search,
standard library only.

    python3 tools/bench_series.py --parent OTHER/src --out BENCH.json

Refutation series: each point is a realizable scheme of n distinct curve
classes (coordinates in [-30, 30], seeded by n) with a perturbation.  The
first six keep every pairwise gcd, so the triangle condition holds and
only Pluecker relations fail; the last two break the triangle condition:

  last_pair        m_{n-1,n} += L, where L is the lcm of all entries;
  first_row        m_{1,n} += L, which leaves the witness attempt the
                   n - 2 pairs of column n, within the Pluecker cap from
                   n = 191, where base pair (3, 4) has one bad pair;
  base_row         m_12 += L, an entry in the rows of the first base pair;
  two_negated      m_{7,n/2} and m_{n/2+1,n} negated, off the rows of
                   every base pair;
  all_bases_dirty  m_12, m_34 and m_56 += L, so every base pair the
                   bad-pair screen tries has a perturbed entry;
  scaled_last_pair every entry doubled, then m_{n-1,n} += L: no base
                   triple admits a kappa at p = 2, so there is no witness
                   and the Pluecker stage is screened by the base pairs
                   alone;
  last_plus_one    m_{n-1,n} += 1;
  base_plus_one    m_12 += 1, which leaves decide_torus no primitive
                   system, so neither check has missed pairs on offer.

It runs n = 28, 40, 80, 160, 320 and records, per point, the wall times
of check_pluecker_full, of check_triangle and of decide_torus on the same
scheme, with the stage that refuted it.  all_bases_dirty stops at
n = 160: there every check tests all C(n,4) quadruples, which takes
about 2.5 s at n = 160 and some 16 times that at n = 320.

Duplicates series: n = 44, 80, 160, 320 curves over n // 4 classes
(coordinates in [-30, 30], seeded by n), each class used four times, each
curve in a random direction, the shape of the duplicate-heavy schemes
whose zero reduction dominates a decision.  Per point it records the
wall times of reduce_zeros and of decide_torus, and the number of curves
the reduction removes.

Mostly-zero series: n = 80, 160, 320 curves whose only nonzero entries
are the last column's, m_{i,n} = i.  No zero pair resolves, so the
reduction scans every zero pair of the matrix before it returns the
first, (1, 2), as unresolvable.  Per point it records the wall times of
reduce_zeros and of decide_torus.

Kappa series: the realizable 3-schemes (2,3,5)*p^nu for p = 2 (nu = 4,
8, 12, 16, 20, 23, 40), p = 7 (nu = 1, 2, 4, 6, 8) and p = 101 (nu = 1..4).
Per point it records the wall times of decide_torus and of an in-process
`check FILE` (JSON parse, decision and JSON output), and the byte length
of the check document.  There is no refusal path: a tree that raises on
a point stops the script.

Packing series: max_packing(d) for d = 1..80.  Per point it records the
wall time and the number of farey.max_clique calls of one call.  Past
d = 40 one call can take half a minute where the packing stays below
p + 1 (d = 73, 75 and 79), since the clique search must then prove its
bound; the packing series is about half of a run with --parent, some
15 minutes.

Search series: bounded_decomposition_search on the endemic 4-schemes
(q; pq,pq; pq,pq,p) for the 20 ordered pairs of distinct p, q in
{3, 5, 7, 11, 13} at bounds 8, 12 and 18, and on (3,5), (5,3) and (3,7)
at bound 30.  A cold call empties the search's left-mask cache first (a
tree without one has nothing to empty); the warm calls come after the
cold ones and read the masks they left.  Per point it records the wall
times of the warm call (ms) and of the cold call (cold_ms), and the hit:
null when the search exhausts, else the left summand's entries.

Split series: bounded_decomposition_search on schemes that do split, at
n = 4 and 5 and bounds 8 and 12, five seeds each.  Each is the sum of a
vector scheme of primitive vectors with coordinates in [-2, 2] whose
entries lie within the bound and one with coordinates in [-3, 3], drawn
again until the sum has no zero entry and fails the triangle condition,
so it is not torus-realizable but has a split within the bound.  Per
point it records the wall time and the hit.

Cold-start series: wall times of whole processes, each tree's package
copied afresh (without __pycache__) and put first on PYTHONPATH:
`python -c pass` (the bare interpreter), `python -c "import toruscurves"`
and `python -m toruscurves check FILE` on a realizable 6-scheme (the
determinants of six primitive classes, exit 0).  It runs in two bytecode
modes: source, with PYTHONDONTWRITEBYTECODE=1, so the package compiles on
every run (the standard library reads its installed bytecode); and
cached, with a fresh PYTHONPYCACHEPREFIX per tree warmed by one run of
each command.  Per (mode, command) it records the wall time of one
process.

Every timed quantity of every series gets ROUNDS paired rounds of its
own.  In a round the trees take turns call by call, which goes first
alternating from pair to pair across points, until each tree has run
once and its calls have taken ROUND_S seconds; a tree's value for the
round is its mean wall time per call (time.perf_counter, in ms), and the
point records per tree the median over the rounds.  With --parent it
also records, for each timed key, the key with "ms" replaced by "ratio":
the median of the rounds' change/parent ratios, so that drift between
rounds cancels, with the ratios themselves under round_ratios.  A count
(max_clique_calls, check_bytes) is recorded as the last call gives it.
The garbage collector runs before every call, so that its work inside a
call does not depend on the calls before it.

With --parent, a second toruscurves tree (the src/ directory of another
checkout) is loaded under another module name and timed in the same
process, so both columns see the same machine state; the script fails
unless both trees give the same reasons, the same reduction and witness
on every duplicates point, the same unresolvable pair, reduction and
reasons on every mostly-zero point, the same kappa, witness and check
stdout at every kappa point, the same packing size and witness at every
d, and the same search hit at every search and split point, where the
cold and warm calls must agree too.

The tier-1 tests check the small points of these series against
tests/reference.py, building them with the generators below: the
refutation points with n <= 40 (the last_pair ones also with curve 1
duplicated), the duplicates and mostly-zero shapes at n = 12, 20, 28 and
40, the kappa points with p^nu <= 10^4, max_packing(d) for d <= 30, the
endemic searches at bounds 0..4 and the split construction at small
bounds; they also run each cold-start command once in each bytecode mode,
with and without -O.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from itertools import count
from math import gcd
from pathlib import Path
from tempfile import TemporaryDirectory
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SIZES = (28, 40, 80, 160, 320)
SHAPES = ("last_pair", "first_row", "base_row", "two_negated",
          "all_bases_dirty", "scaled_last_pair", "last_plus_one",
          "base_plus_one")
# the largest n of each shape whose checks scan all C(n,4) quadruples
FULL_SCAN_MAX_N = {"all_bases_dirty": 160}
CMAX = 30
# (p, nu) of the kappa series
KAPPA_POINTS = (
    [(2, nu) for nu in (4, 8, 12, 16, 20, 23, 40)]
    + [(7, nu) for nu in (1, 2, 4, 6, 8)]
    + [(101, nu) for nu in (1, 2, 3, 4)]
)
PACKING_DS = range(1, 81)
ODD_PRIMES = (3, 5, 7, 11, 13)
ENDEMIC_PAIRS = [(p, q) for p in ODD_PRIMES for q in ODD_PRIMES if p != q]
SEARCH_POINTS = (
    [(p, q, bound) for bound in (8, 12, 18) for p, q in ENDEMIC_PAIRS]
    + [(3, 5, 30), (5, 3, 30), (3, 7, 30)]
)
# (n, bound, seed) of the split series
SPLIT_POINTS = [(n, bound, seed) for n in (4, 5) for bound in (8, 12)
                for seed in range(5)]
# curve counts of the duplicates series: n curves over n // 4 classes
DUP_SIZES = (44, 80, 160, 320)
# curve counts of the mostly-zero series
MOSTLY_ZERO_SIZES = (80, 160, 320)
# the cold-start commands, each after the interpreter's path
COLD_COMMANDS = {
    "bare": ["-c", "pass"],
    "import": ["-c", "import toruscurves"],
    "check": ["-m", "toruscurves", "check"],  # + the scheme file
}
# paired rounds per timed key, and the least time, in seconds, that each
# tree's calls take in a round (as timeit.Timer.autorange's 0.2 s)
ROUNDS = 5
ROUND_S = 0.2


def load_tree(src: Path, alias: str):
    """Import the toruscurves package under src as the module alias."""
    init = src / "toruscurves" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        alias, init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


def _pos(i: int, j: int) -> int:
    """Column-order position of m_ij, 1 <= i < j."""
    return (j - 1) * (j - 2) // 2 + i - 1


def primitive_classes(rng, count: int) -> list:
    """count primitive classes (p, q), no two equal up to sign, each drawn
    from rng as two coordinates in [-CMAX, CMAX] until one is new; raises
    ValueError when the box holds fewer than count classes up to sign."""
    box = range(-CMAX, CMAX + 1)
    held = sum(gcd(p, q) == 1 for p in box for q in box) // 2
    if count > held:
        raise ValueError(f"{count} classes asked for, but [-{CMAX}, {CMAX}]^2 "
                         f"holds {held} primitive classes up to sign")
    seen, vecs = set(), []
    while len(vecs) < count:
        p, q = rng.randint(-CMAX, CMAX), rng.randint(-CMAX, CMAX)
        if gcd(p, q) == 1 and (p, q) not in seen:
            seen.update({(p, q), (-p, -q)})
            vecs.append((p, q))
    return vecs


def vector_entries(vecs) -> list:
    """The entries det(v_i, v_j) of the vectors, in column order."""
    return [vecs[i][0] * vecs[j][1] - vecs[j][0] * vecs[i][1]
            for j in range(1, len(vecs)) for i in range(j)]


def split_entries(n: int, bound: int, seed: int) -> list:
    """A non-torus n-scheme with a split whose left summand lies within
    the bound: the vector scheme of n primitive vectors in [-2, 2]^2 with
    entries in [-bound, bound] plus one of vectors in [-3, 3]^2, drawn
    again until the sum has no zero entry and a triple whose three
    pairwise gcds differ."""
    rng = random.Random(f"split-{n}-{bound}-{seed}")

    def vectors(c):
        out = []
        while len(out) < n:
            p, q = rng.randint(-c, c), rng.randint(-c, c)
            if gcd(p, q) == 1:
                out.append((p, q))
        return out

    while True:
        left = vector_entries(vectors(2))
        if max(map(abs, left)) > bound:
            continue
        entries = [a + b for a, b in zip(left, vector_entries(vectors(3)))]
        if 0 not in entries and any(
            not gcd(x, y) == gcd(x, z) == gcd(y, z)
            for x, y, z in (
                (entries[_pos(i, j)], entries[_pos(i, k)], entries[_pos(j, k)])
                for k in range(3, n + 1) for j in range(2, k)
                for i in range(1, j))
        ):
            return entries


def shape_entries(n: int, shape: str) -> list:
    entries = vector_entries(primitive_classes(random.Random(n), n))
    if shape == "scaled_last_pair":
        entries = [2 * e for e in entries]
    lcm = 1
    for e in entries:
        lcm = lcm * abs(e) // gcd(lcm, e)
    if shape in ("last_pair", "scaled_last_pair"):
        entries[_pos(n - 1, n)] += lcm
    elif shape == "first_row":
        entries[_pos(1, n)] += lcm
    elif shape == "base_row":
        entries[_pos(1, 2)] += lcm
    elif shape == "two_negated":
        for i, j in ((7, n // 2), (n // 2 + 1, n)):
            entries[_pos(i, j)] *= -1
    elif shape == "all_bases_dirty":
        for i in (1, 3, 5):
            entries[_pos(i, i + 1)] += lcm
    elif shape == "last_plus_one":
        entries[_pos(n - 1, n)] += 1
    elif shape == "base_plus_one":
        entries[_pos(1, 2)] += 1
    else:
        raise ValueError(f"unknown shape {shape!r}")
    if 0 in entries:
        raise SystemExit(f"n={n} {shape}: a perturbed entry is 0")
    return entries


def timed(fn, arg):
    """(wall time in ms, result) of one call."""
    t0 = perf_counter()
    out = fn(arg)
    return (perf_counter() - t0) * 1e3, out


# pairs of calls, counted across points, so that which tree goes first
# alternates from pair to pair even where every round holds one pair
TURNS = count()


def measure(trees: dict, key: str, run):
    """ROUNDS paired rounds of run(label, tree) -> ({key: ms, count: value,
    ...}, output).  In a round the trees take turns, which goes first
    alternating by TURNS, until each has run once and its calls have taken
    ROUND_S; a tree's value for the round is its mean ms per call.
    ({label: {key: median of the tree's round values, count: the last
    call's value}}, {label: the last call's output}, [the change/parent
    ratio of each round], empty without a parent)."""
    means = {label: [] for label in trees}
    last, outs = {}, {}
    # every call starts from an empty young heap, so that the collector
    # does the same work in each tree's calls; frozen, the objects alive
    # now cost those collections nothing
    gc.collect()
    gc.freeze()
    try:
        for _ in range(ROUNDS):
            total, calls = dict.fromkeys(trees, 0.0), 0
            while not calls or min(total.values()) < ROUND_S * 1e3:
                order = list(trees.items())[::-1 if next(TURNS) % 2 else 1]
                for label, tree in order:
                    gc.collect()
                    last[label], outs[label] = run(label, tree)
                    total[label] += last[label][key]
                calls += 1
            for label in trees:
                means[label].append(total[label] / calls)
    finally:
        gc.unfreeze()
    values = {label: {**last[label],
                      key: round(statistics.median(means[label]), 3)}
              for label in trees}
    ratios = ([c / p for c, p in zip(means["change"], means["parent"])]
              if "parent" in trees else [])
    return values, outs, ratios


def record(points: list, trees: dict, runs: dict, fields) -> None:
    """measure(trees, key, run) for each key, run in runs; fails the script
    unless, for every key, every tree's output equals this tree's, then
    appends {**fields({key: this tree's output}), label: its values, the
    key with "ms" replaced by "ratio": the median of its round ratios,
    "round_ratios": those ratios} to points and prints it."""
    values = {label: {} for label in trees}
    outs, extra, rounds = {}, {}, {}
    for key, run in runs.items():
        vals, outs[key], ratios = measure(trees, key, run)
        for label in trees:
            values[label].update(vals[label])
        if ratios:
            name = key.replace("ms", "ratio")
            extra[name] = round(statistics.median(ratios), 3)
            rounds[name] = [round(r, 3) for r in ratios]
    out = {key: by_tree["change"] for key, by_tree in outs.items()}
    if any(o != out[key] for key, by_tree in outs.items()
           for o in by_tree.values()):
        raise SystemExit(f"{fields(out)}: the trees' outputs differ")
    point = {**fields(out), **values, **extra}
    if rounds:
        point["round_ratios"] = rounds
    points.append(point)
    print(json.dumps(point), flush=True)


def reasons(failures) -> list:
    """The index tuples of triangle or Pluecker failures, read by field
    name, so that reasons of any tree's record type compare."""
    return [tuple(getattr(f, a) for a in "ijkl" if hasattr(f, a))
            for f in failures]


def shape_points():
    """(n, shape) of every refutation point, in run order."""
    return [(n, shape) for n in SIZES for shape in SHAPES
            if n <= FULL_SCAN_MAX_N.get(shape, n)]


def duplicate_entries(n: int) -> list:
    """n curves over n // 4 classes (coordinates in [-CMAX, CMAX], seeded
    by n), each class n // (n // 4) or one more times, each curve in a
    random direction: a realizable scheme whose zero reduction keeps one
    curve per class."""
    rng = random.Random(f"duplicates-{n}")
    base = primitive_classes(rng, n // 4)
    picks = [base[i % len(base)] for i in range(n)]
    rng.shuffle(picks)
    return vector_entries(
        [(p, q) if rng.random() < 0.5 else (-p, -q) for p, q in picks])


def reduction_of(log) -> tuple:
    """The steps and survivors of a ReductionLog as plain tuples, so that
    the logs of two trees compare."""
    return (tuple((st.removed_index, st.reason, st.of_index, st.sign)
                  for st in log.steps), log.survivors)


def witness_of(v) -> tuple:
    """(kappa, witness vectors) of a realizable verdict, as plain tuples."""
    return v.kappa, tuple((c.p, c.q) for c in v.witness)


def mostly_zero_entries(n: int) -> list:
    """The entries of n curves with m_{i,n} = i and every other entry 0."""
    return [0] * _pos(1, n) + list(range(1, n))


def kappa_entries(p: int, nu: int) -> list:
    g = p**nu
    return [2 * g, 3 * g, 5 * g]


def series(trees: dict) -> list:
    points = []
    for n, shape in shape_points():
        entries = shape_entries(n, shape)
        schemes = {label: t.new_scheme(n, entries) for label, t in trees.items()}

        def pluecker(label, tree):
            ms = timed(tree.check_pluecker_full, schemes[label])[0]
            return {"pluecker_ms": ms}, None

        def triangle(label, tree):
            ms = timed(tree.check_triangle, schemes[label])[0]
            return {"triangle_ms": ms}, None

        def decide(label, tree):
            ms, v = timed(tree.decide_torus, schemes[label])
            return ({"decide_ms": ms},
                    (type(v.reasons[0]).__name__, reasons(v.reasons)))

        record(points, trees,
               {"pluecker_ms": pluecker, "triangle_ms": triangle,
                "decide_ms": decide},
               lambda out: {"n": n, "shape": shape,
                            "stage": out["decide_ms"][0],
                            "reasons": len(out["decide_ms"][1])})
    return points


def duplicates_series(trees: dict) -> list:
    points = []
    for n in DUP_SIZES:
        entries = duplicate_entries(n)
        schemes = {label: t.new_scheme(n, entries) for label, t in trees.items()}

        def reduce(label, tree):
            ms, red = timed(tree.reduce_zeros, schemes[label])
            return {"reduce_ms": ms}, reduction_of(red)

        def decide(label, tree):
            ms, v = timed(tree.decide_torus, schemes[label])
            if not v.realizable:
                raise SystemExit(f"n={n} duplicates: {label} refutes")
            return {"decide_ms": ms}, witness_of(v)

        record(points, trees, {"reduce_ms": reduce, "decide_ms": decide},
               lambda out: {"n": n, "classes": n // 4,
                            "removed": len(out["reduce_ms"][0])})
    return points


def mostly_zero_series(trees: dict) -> list:
    points = []
    for n in MOSTLY_ZERO_SIZES:
        entries = mostly_zero_entries(n)
        schemes = {label: t.new_scheme(n, entries) for label, t in trees.items()}

        def reduce(label, tree):
            ms, red = timed(tree.reduce_zeros, schemes[label])
            return {"reduce_ms": ms}, ((red.i, red.j), reduction_of(red))

        def decide(label, tree):
            ms, v = timed(tree.decide_torus, schemes[label])
            return {"decide_ms": ms}, [(r.i, r.j) for r in v.reasons]

        record(points, trees, {"reduce_ms": reduce, "decide_ms": decide},
               lambda out: {"n": n, "unresolvable": out["reduce_ms"][0]})
    return points


def check_stdout(cli, path: str) -> str:
    """stdout of one in-process `check path`, which must exit 0."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.run(["check", path])
    if code != 0:
        raise SystemExit(f"check {path} exits {code}")
    return out.getvalue()


def kappa_series(trees: dict) -> list:
    clis = {label: importlib.import_module(t.__name__ + ".cli")
            for label, t in trees.items()}
    points = []
    with TemporaryDirectory() as tmp:
        for p, nu in KAPPA_POINTS:
            entries = kappa_entries(p, nu)
            path = os.path.join(tmp, f"k{p}_{nu}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"n": 3, "entries": entries}, fh)

            def decide(label, tree):
                ms, v = timed(tree.decide_torus, tree.new_scheme(3, entries))
                return {"decide_ms": ms}, witness_of(v)

            def check(label, tree):
                ms, text = timed(partial(check_stdout, clis[label]), path)
                return {"check_ms": ms, "check_bytes": len(text)}, text

            record(points, trees, {"decide_ms": decide, "check_ms": check},
                   lambda out: {"p": p, "nu": nu, "modulus": p**nu})
    return points


def counted_packing(tree, d: int):
    """(result, farey.max_clique calls) of one max_packing(d)."""
    farey = importlib.import_module(tree.__name__ + ".farey")
    inner = farey.max_clique
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return inner(*args, **kwargs)

    farey.max_clique = counted
    try:
        res = farey.max_packing(d)
    finally:
        farey.max_clique = inner
    return res, calls


def packing_series(trees: dict) -> list:
    points = []
    for d in PACKING_DS:

        def run(label, tree):
            ms, (res, calls) = timed(partial(counted_packing, tree), d)
            return ({"ms": ms, "max_clique_calls": calls},
                    (res.size, res.witness))

        record(points, trees, {"ms": run},
               lambda out: {"d": d, "size": out["ms"][0]})
    return points


def left_entries(hit):
    """The left summand's entries of a search hit, or None."""
    return None if hit is None else hit.left.entries


def search_series(trees: dict) -> list:
    points = []
    for p, q, bound in SEARCH_POINTS:

        def search(label, tree, cold):
            s = tree.endemic_family(p, q)
            # a tree without the left-mask cache times plain calls
            left_mask = getattr(tree.genus, "_left_mask", None)
            if cold and left_mask is not None:
                left_mask.cache_clear()
            ms, hit = timed(
                partial(tree.bounded_decomposition_search, bound=bound), s)
            return {"cold_ms" if cold else "ms": ms}, left_entries(hit)

        def fields(out):
            if out["cold_ms"] != out["ms"]:
                raise SystemExit(f"endemic ({p},{q}) bound {bound}: hits "
                                 "differ on an empty and a warm cache")
            return {"p": p, "q": q, "bound": bound, "hit": out["ms"]}

        # the cold calls first, so that the warm ones read their masks
        record(points, trees,
               {"cold_ms": partial(search, cold=True),
                "ms": partial(search, cold=False)}, fields)
    return points


def split_series(trees: dict) -> list:
    points = []
    for n, bound, seed in SPLIT_POINTS:
        entries = split_entries(n, bound, seed)

        def run(label, tree):
            search = partial(tree.bounded_decomposition_search, bound=bound)
            ms, hit = timed(search, tree.new_scheme(n, entries))
            if hit is None:
                raise SystemExit(f"split n={n} bound {bound} seed {seed}: "
                                 f"{label} finds no split")
            return {"ms": ms}, left_entries(hit)

        record(points, trees, {"ms": run},
               lambda out: {"n": n, "bound": bound, "seed": seed,
                            "entries": entries, "hit": out["ms"]})
    return points


def cold_setup(srcs: dict, tmp: Path):
    """The path of the cold-start scheme file, written into tmp, and the
    environment of each (bytecode mode, tree label): each tree's package
    is copied into tmp without __pycache__ and put first on PYTHONPATH."""
    path = tmp / "cold6.json"
    entries = vector_entries(primitive_classes(random.Random("cold"), 6))
    path.write_text(json.dumps({"n": 6, "entries": entries}))
    base = {k: v for k, v in os.environ.items() if k not in (
        "PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    envs = {}
    for label, src in srcs.items():
        shutil.copytree(src / "toruscurves", tmp / label / "toruscurves",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {**base, "PYTHONPATH": str(tmp / label)}
        envs["source", label] = {**env, "PYTHONDONTWRITEBYTECODE": "1"}
        envs["cached", label] = {
            **env, "PYTHONPYCACHEPREFIX": str(tmp / f"{label}-pycache")}
    return str(path), envs


def cold_run(env: dict, name: str, path: str, flags=()) -> float:
    """Wall time in ms of one process of the cold-start command name; the
    script fails unless it exits 0 and check prints status "torus"."""
    argv = [sys.executable, *flags, *COLD_COMMANDS[name]]
    argv += [path] if name == "check" else []
    t0 = perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    ms = (perf_counter() - t0) * 1e3
    if proc.returncode != 0 or (
            name == "check" and json.loads(proc.stdout)["status"] != "torus"):
        raise SystemExit(f"{' '.join(argv[1:])}: exit {proc.returncode}, "
                         f"stdout {proc.stdout[:200]!r}, "
                         f"stderr {proc.stderr[-300:]!r}")
    return ms


def cold_start_series(srcs: dict) -> list:
    """Per bytecode mode and cold-start command, the wall time of one
    process per tree, recorded after one warm-up run of every command."""
    points = []
    with TemporaryDirectory() as tmp:
        path, envs = cold_setup(srcs, Path(tmp))
        for mode in ("source", "cached"):
            trees = {label: envs[mode, label] for label in srcs}
            for env in trees.values():
                for name in COLD_COMMANDS:
                    cold_run(env, name, path)
            for name in COLD_COMMANDS:

                def run(label, env):
                    return {"ms": cold_run(env, name, path)}, None

                record(points, trees, {"ms": run},
                       lambda out: {"bytecode": mode, "command": name})
    return points


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path,
                    help="src/ directory of a second tree to time alongside")
    ap.add_argument("--out", type=Path, help="write the series as JSON here")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import toruscurves

    trees, srcs = {}, {}
    if args.parent is not None:
        trees["parent"] = load_tree(args.parent.resolve(), "parent_toruscurves")
        srcs["parent"] = args.parent.resolve()
    trees["change"] = toruscurves
    srcs["change"] = ROOT / "src"
    doc = {
        "what": "points: check_pluecker_full, check_triangle and "
                "decide_torus on the Pluecker- and triangle-refuted shapes "
                f"{', '.join(SHAPES)}, with the refuting stage and its "
                "reason count. duplicates_points: reduce_zeros and "
                "decide_torus on n curves over n // 4 classes, with the "
                "curves the reduction removes. mostly_zero_points: "
                "reduce_zeros and decide_torus on n curves with m_{i,n} = i "
                "and every other entry 0, with the unresolvable pair. "
                "kappa_points: decide_torus and an in-process check FILE "
                "on (2,3,5)*p^nu, and the byte length of the check "
                "document, which must be the same in every tree; there is "
                "no refusal path, a tree that raises stops the run. "
                "packing_points: max_packing(d), with the farey.max_clique "
                "calls of one call. search_points: "
                "bounded_decomposition_search on the endemic 4-scheme of "
                "(p, q) at the bound, cold (cold_ms, the left-mask cache "
                "emptied first; a plain call on a tree without the cache) "
                "and then warm (ms), and the hit (null, or the left "
                "summand's entries). split_points: "
                "bounded_decomposition_search on a non-torus sum of a "
                "vector scheme within the bound and another one, n = 4 and "
                "5, bounds 8 and 12, five seeds each, and the hit. "
                "cold_start_points: whole processes, python -c pass, python "
                "-c 'import toruscurves' and python -m toruscurves check on "
                "a realizable 6-scheme, each tree's package copied without "
                "__pycache__, in two bytecode modes (source: "
                "PYTHONDONTWRITEBYTECODE=1; cached: a fresh "
                "PYTHONPYCACHEPREFIX warmed by one run of each command). "
                "'change' is this tree, 'parent' the tree given by "
                f"--parent. Every *ms key gets {ROUNDS} paired rounds of its "
                "own: in a round the trees' calls alternate, which goes "
                "first alternating from pair to pair, until each tree has "
                f"run once and its calls have taken {ROUND_S} s; a tree's "
                "value for a round is its mean wall time per call in ms, "
                "and the point records per tree the median over the "
                "rounds. With a parent, the key with ms replaced by ratio "
                "is the median of the rounds' change/parent ratios, which "
                "round_ratios lists. Counts (max_clique_calls, "
                "check_bytes) are those of one call",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "points": series(trees),
        "duplicates_points": duplicates_series(trees),
        "mostly_zero_points": mostly_zero_series(trees),
        "kappa_points": kappa_series(trees),
        "packing_points": packing_series(trees),
        "search_points": search_series(trees),
        "split_points": split_series(trees),
        "cold_start_points": cold_start_series(srcs),
    }
    if args.out is not None:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
