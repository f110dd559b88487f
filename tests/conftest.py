import random
import sys
from functools import lru_cache
from math import gcd
from pathlib import Path

import pytest

from toruscurves import Scheme, curve, new_scheme

# the tests check the small points of tools/bench_series.py's series
# against reference.py, built with that script's own generators
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))


def random_nonzero_scheme(rng: random.Random, n: int, hi: int = 12) -> Scheme:
    k = n * (n - 1) // 2
    pool = [x for x in range(-hi, hi + 1) if x != 0]
    return new_scheme(n, [rng.choice(pool) for _ in range(k)])


@lru_cache(maxsize=None)
def primitive_classes(qmax: int) -> int:
    """The number of primitive vectors up to sign with coordinates in
    [-qmax, qmax]: 16 for qmax = 3, 48 for qmax = 6."""
    box = range(-qmax, qmax + 1)
    return sum(1 for p in box for q in box if gcd(p, q) == 1) // 2


def random_vector_scheme(rng: random.Random, n: int, qmax: int = 6,
                         distinct: bool = False) -> Scheme:
    """Scheme read off an actual system of primitive vectors (always
    realizable on the torus).  With distinct, no two vectors agree up to
    sign; ValueError when the box has fewer than n such classes."""
    if distinct and n > primitive_classes(qmax):
        raise ValueError(
            f"{n} distinct classes requested, [-{qmax}, {qmax}]^2 has "
            f"{primitive_classes(qmax)}"
        )
    vecs = []
    seen = set()
    while len(vecs) < n:
        p, q = rng.randint(-qmax, qmax), rng.randint(-qmax, qmax)
        if (p, q) == (0, 0) or gcd(abs(p), abs(q)) != 1:
            continue
        if distinct:
            key = (p, q) if q > 0 or (q == 0 and p > 0) else (-p, -q)
            if key in seen:
                continue
            seen.add(key)
        vecs.append((p, q))
    entries = [
        vecs[i][0] * vecs[j][1] - vecs[j][0] * vecs[i][1]
        for j in range(1, n)
        for i in range(j)
    ]
    return new_scheme(n, entries)


def dets(vecs) -> list:
    """Column-order entries of a system; None stands for an Empty curve."""
    return [
        0 if u is None or v is None else u[0] * v[1] - v[0] * u[1]
        for j, v in enumerate(vecs)
        for u in vecs[:j]
    ]


def count_pluecker_tests(monkeypatch) -> list:
    """Wrap conditions._nonzero_pfaffians so that each call appends
    (pairs, tested) to the list returned: the pairs (i, j), 0-based, of
    its groups and the number of quadruples through them it is given."""
    from toruscurves import conditions

    calls = []
    scan = conditions._nonzero_pfaffians

    def counted(rows, groups):
        groups = list(groups)
        calls.append(([(i, j) for i, j, _ in groups],
                      sum(len(ls) for _, _, kls in groups for _, ls in kls)))
        return scan(rows, groups)

    monkeypatch.setattr(conditions, "_nonzero_pfaffians", counted)
    return calls


def sl2_act(matrix, system) -> tuple:
    """Apply an SL(2,Z) matrix to every non-Empty vector of a system;
    ValueError when its determinant is not 1."""
    (a, b), (c, d) = matrix
    if a * d - b * c != 1:
        raise ValueError(f"determinant is {a * d - b * c}, not 1")
    return tuple(v if v.is_empty else curve(a * v.p + b * v.q, c * v.p + d * v.q)
                 for v in system)


def phi(m: int) -> int:
    """Euler's totient of m >= 1, by counting the units mod m."""
    return sum(1 for r in range(m) if gcd(r, m) == 1)


def random_permutation(rng: random.Random, n: int):
    sigma = list(range(1, n + 1))
    rng.shuffle(sigma)
    return tuple(sigma)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
