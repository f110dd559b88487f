"""Integer helpers the benchmark uses to build inputs and to check outputs.

Everything here is independent of the toruscurves package: witnesses are
re-verified with math.gcd and plain determinants, and expected verdicts come
from how each input was built, never from the decision pipeline under test.
"""

from __future__ import annotations

from math import gcd


def pos(i: int, j: int) -> int:
    """Column-order index of m_ij (1-based, i < j) in a scheme's entry list."""
    return (j - 1) * (j - 2) // 2 + (i - 1)


def dets(vecs) -> list:
    """Column-order entries m_ij = det(v_i, v_j) of a system of vectors."""
    n = len(vecs)
    return [
        vecs[i][0] * vecs[j][1] - vecs[j][0] * vecs[i][1]
        for j in range(1, n)
        for i in range(j)
    ]


def canon(v) -> tuple:
    """Unoriented class of a vector: (p, q) with q > 0, or (1, 0)-like."""
    p, q = v
    return v if q > 0 or (q == 0 and p > 0) else (-p, -q)


def primitive(rng, cmax: int) -> tuple:
    while True:
        p, q = rng.randint(-cmax, cmax), rng.randint(-cmax, cmax)
        if gcd(p, q) == 1:
            return p, q


def distinct_classes(rng, n: int, cmax: int) -> list:
    """n primitive vectors, no two parallel, so every det is nonzero."""
    seen = set()
    out = []
    while len(out) < n:
        v = primitive(rng, cmax)
        if canon(v) not in seen:
            seen.add(canon(v))
            out.append(v)
    return out


def matrix(n: int, entries) -> list:
    """Antisymmetric n x n matrix (0-based) of a column-order entry list."""
    m = [[0] * n for _ in range(n)]
    t = 0
    for j in range(1, n):
        for i in range(j):
            m[i][j] = entries[t]
            m[j][i] = -entries[t]
            t += 1
    return m


def triangle_failures(n: int, entries) -> list:
    """1-based triples i<j<k, all three entries nonzero, whose pairwise
    gcds differ; in lexicographic order."""
    m = matrix(n, entries)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            a = m[i][j]
            for k in range(j + 1, n):
                b, c = m[i][k], m[j][k]
                if a and b and c and not gcd(a, b) == gcd(a, c) == gcd(b, c):
                    out.append((i + 1, j + 1, k + 1))
    return out


def v2(x: int) -> int:
    x = abs(x)
    return (x & -x).bit_length() - 1


def realizable3(x: int, y: int, z: int) -> bool:
    """Closed form for a 3-scheme with nonzero entries: the triangle
    condition plus, when the common gcd is even, 2-valuations that are not
    all equal."""
    g1, g2, g3 = gcd(x, y), gcd(x, z), gcd(y, z)
    if not g1 == g2 == g3:
        return False
    return g1 % 2 == 1 or not v2(x) == v2(y) == v2(z)


def system_mismatch(n: int, entries, system):
    """None when system (a sequence of (p, q) pairs, None for an Empty
    curve) is primitive and realizes the entries; else what is wrong."""
    if len(system) != n:
        return f"witness has {len(system)} curves, want {n}"
    for v in system:
        if v is not None and gcd(v[0], v[1]) != 1:
            return f"witness vector {v} is not primitive"
    t = 0
    for j in range(1, n):
        for i in range(j):
            u, v = system[i], system[j]
            det = 0 if u is None or v is None else u[0] * v[1] - v[0] * u[1]
            if det != entries[t]:
                return f"witness det at m_{i + 1},{j + 1} is {det}, want {entries[t]}"
            t += 1
    return None


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def next_prime_above(d: int) -> int:
    p = d + 1
    while not is_prime(p):
        p += 1
    return p

