"""Genus bounds, genus-2 decomposition of 3-schemes, the endemic 4-scheme
family, and a bounded search for torus+torus decompositions.

A scheme sum m = m' + m'' with both summands torus-realizable puts m on a
genus-2 surface (connected sum along compatible arcs); for 3-schemes such a
split always exists, while the endemic family (q; pq,pq; pq,pq,p) for odd
primes p != q admits none.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Optional, Union

from .errors import DomainError, InvalidShape, PreconditionViolated
from .conditions import Verdict, decide_torus
from .intarith import is_probable_prime
from .scheme import Scheme, get, permute, scheme_sum


def genus_upper_bound(n: int) -> int:
    """Genus of the generic realizing surface: n(n+1)/2 - 2."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    return n * (n + 1) // 2 - 2


def coprime_shift(a: int, b: int, c: int) -> int:
    """Kappa of least absolute value (nonnegative on ties) making a-kappa,
    b-kappa, c pairwise coprime.

    Requires a = b mod 2 and c != 0; a solution is then guaranteed (the
    constraints are congruence conditions at the prime divisors of
    c*(a-b), each leaving at least one residue free).  When a = b the only
    solutions are kappa = a -+ 1, which may both be negative, so the scan
    runs over both signs.
    """
    if c == 0:
        raise PreconditionViolated("c must be nonzero")
    if (a - b) % 2 != 0:
        raise PreconditionViolated("a and b must share parity")
    magnitude = 0
    while True:
        for kappa in (magnitude, -magnitude) if magnitude else (0,):
            x, y = a - kappa, b - kappa
            if gcd(x, y) == 1 and gcd(x, c) == 1 and gcd(y, c) == 1:
                return kappa
        magnitude += 1


@dataclass(frozen=True)
class Decomposition:
    left: Scheme
    right: Scheme
    left_verdict: Verdict
    right_verdict: Verdict
    degenerate: bool = False  # one summand is the zero scheme


@dataclass(frozen=True)
class AlreadyTorus:
    verdict: Verdict


def decompose_3scheme(s: Scheme) -> Union[Decomposition, AlreadyTorus]:
    """Split a non-torus 3-scheme into two torus-realizable summands.

    With the zero entry (if any) moved to position m_23, the split is
    (b; b, 0) + (a-b; 0, 0); otherwise a parity-matched reindexing puts the
    two same-parity entries at m_12, m_13 and the split is
    (m_12-kappa; m_13-kappa, m_23) + (kappa; kappa, 0) with kappa from
    coprime_shift.
    """
    if s.n != 3:
        raise InvalidShape(f"need a 3-scheme, got n={s.n}")
    verdict = decide_torus(s)
    if verdict.realizable:
        return AlreadyTorus(verdict)

    zero_slots = [
        (i, j) for j in range(2, 4) for i in range(1, j) if get(s, i, j) == 0
    ]
    if zero_slots:
        # exactly one zero: more zeros would have reduced to a realizable scheme
        i, j = zero_slots[0]
        k = ({1, 2, 3} - {i, j}).pop()
        sigma = (k,) + tuple(sorted((i, j)))  # new index 1 is the shared curve
        sp = permute(s, sigma)
        a, b = get(sp, 1, 2), get(sp, 1, 3)
        left_p = Scheme(3, (b, b, 0))
        right_p = Scheme(3, (a - b, 0, 0))
    else:
        pairs = [
            ((1, 2), (1, 3), (1, 2, 3)),
            ((1, 2), (2, 3), (2, 1, 3)),
            ((1, 3), (2, 3), (3, 1, 2)),
        ]
        for e1, e2, sigma in pairs:
            if (get(s, *e1) - get(s, *e2)) % 2 == 0:
                break
        sp = permute(s, sigma)
        a, b, c = get(sp, 1, 2), get(sp, 1, 3), get(sp, 2, 3)
        kappa = coprime_shift(a, b, c)
        left_p = Scheme(3, (a - kappa, b - kappa, c))
        right_p = Scheme(3, (kappa, kappa, 0))

    inv = _inverse(sigma)
    left, right = permute(left_p, inv), permute(right_p, inv)
    lv, rv = decide_torus(left), decide_torus(right)
    if not (lv.realizable and rv.realizable):
        raise AssertionError(f"internal fault: bad 3-scheme split of {s}")
    if scheme_sum(left, right) != s:
        raise AssertionError(f"internal fault: split does not sum to {s}")
    return Decomposition(left, right, lv, rv)


def _inverse(sigma) -> tuple:
    inv = [0] * len(sigma)
    for pos, img in enumerate(sigma, start=1):
        inv[img - 1] = pos
    return tuple(inv)


def endemic_family(p: int, q: int) -> Scheme:
    """The 4-scheme (q; pq, pq; pq, pq, p) for distinct odd primes p, q.

    Members are realized on a genus-2 surface but on no torus, and admit no
    torus+torus scheme decomposition at all.
    """
    for t in (p, q):
        if t <= 2 or not is_probable_prime(t):
            raise DomainError(f"{t} is not an odd prime")
    if p == q:
        raise DomainError("the construction needs p != q")
    return Scheme(4, (q, p * q, p * q, p * q, p * q, p))


# ---------------------------------------------------------------------------
# Bounded decomposition search
# ---------------------------------------------------------------------------


def _realizable3(x: int, y: int, z: int) -> bool:
    """Torus realizability of the 3-scheme (x; y, z), zeros included.

    Closed form: a zero entry resolves iff the opposite two entries agree
    up to sign or one of them vanishes; otherwise the triangle condition
    must hold and, when 2 divides the common gcd, the 2-valuations must
    not all coincide.
    """
    if z == 0:
        return x == y or x == -y or x == 0 or y == 0
    if y == 0:
        return x == z or x == -z or x == 0 or z == 0
    if x == 0:
        return y == z or y == -z or y == 0 or z == 0
    g1, g2, g3 = gcd(x, y), gcd(x, z), gcd(y, z)
    if not g1 == g2 == g3:
        return False
    if g1 % 2:
        return True
    return not (_v2(x) == _v2(y) == _v2(z))


def _v2(n: int) -> int:
    n = abs(n)
    return (n & -n).bit_length() - 1


def bounded_decomposition_search(
    s: Scheme, bound: int
) -> Optional[Decomposition]:
    """First m' (lexicographic over entries in [-bound, bound]) with both
    m' and s - m' torus-realizable, or None.

    None does not prove the scheme endemic; it is evidence at the stated
    bound.  The enumeration is pruned by sub-triple realizability, which
    every sub-scheme of a realizable scheme satisfies, so the first hit
    matches the unpruned scan.
    """
    if bound < 0:
        raise DomainError(f"bound must be >= 0, got {bound}")
    if s.n == 4:
        found = _search4(s, bound)
    else:
        found = _search_generic(s, bound)
    if found is None:
        return None
    left = Scheme(s.n, found)
    right = scheme_sum(s, Scheme(s.n, tuple(-e for e in found)))
    lv, rv = decide_torus(left), decide_torus(right)
    degenerate = not any(left.entries) or not any(right.entries)
    return Decomposition(left, right, lv, rv, degenerate)


def _search_generic(s: Scheme, bound: int):
    """Depth-first lexicographic scan with triple pruning, any n."""
    k = len(s.entries)
    # triples become checkable at the slot where their last entry lands
    pairs = [(i, j) for j in range(2, s.n + 1) for i in range(1, j)]
    slot = {pr: t for t, pr in enumerate(pairs)}
    completed = [[] for _ in range(k)]
    for j in range(3, s.n + 1):
        for i2 in range(2, j):
            for i1 in range(1, i2):
                slots = (slot[(i1, i2)], slot[(i1, j)], slot[(i2, j)])
                completed[max(slots)].append(slots)
    r3 = lru_cache(maxsize=None)(_realizable3)
    target = s.entries
    chosen = [0] * k

    def dfs(t: int):
        if t == k:
            left = Scheme(s.n, tuple(chosen))
            right = Scheme(s.n, tuple(x - y for x, y in zip(target, chosen)))
            if decide_torus(left).realizable and decide_torus(right).realizable:
                return tuple(chosen)
            return None
        for v in range(-bound, bound + 1):
            chosen[t] = v
            ok = True
            for (t1, t2, t3) in completed[t]:
                if not r3(chosen[t1], chosen[t2], chosen[t3]) or not r3(
                    target[t1] - chosen[t1],
                    target[t2] - chosen[t2],
                    target[t3] - chosen[t3],
                ):
                    ok = False
                    break
            if ok:
                hit = dfs(t + 1)
                if hit is not None:
                    return hit
        return None

    return dfs(0)


def _search4(s: Scheme, bound: int):
    """4-scheme search specialized for speed.

    The last slot f = m'_34 sits in triples (1,3,4) and (2,3,4) of both
    summands; feasible f values for each (b,d) and (c,e) are cached as
    bitmasks (bit f+bound set iff the two triples through that pair stay
    realizable), so the innermost step is two mask lookups and an AND.
    """
    s12, s13, s23, s14, s24, s34 = s.entries
    B = bound
    rng = range(-B, B + 1)
    r3 = lru_cache(maxsize=None)(_realizable3)

    def f_masks(s_x3, s_x4):
        # (m'_x3, m'_x4) -> bitmask of the f keeping triple (x,3,4)
        # realizable in both summands
        @lru_cache(maxsize=None)
        def mask(u, v):
            return sum(
                1 << (f + B)
                for f in rng
                if r3(u, v, f) and r3(s_x3 - u, s_x4 - v, s34 - f)
            )

        return mask

    mask134, mask234 = f_masks(s13, s14), f_masks(s23, s24)

    for a in rng:
        de_pairs = [
            (d, e)
            for d in rng
            for e in rng
            if r3(a, d, e) and r3(s12 - a, s14 - d, s24 - e)
        ]
        if not de_pairs:
            continue
        for b in rng:
            for c in rng:
                if not (r3(a, b, c) and r3(s12 - a, s13 - b, s23 - c)):
                    continue
                for d, e in de_pairs:
                    cand = mask134(b, d) & mask234(c, e)
                    if not cand:
                        continue
                    lz = 0 not in (a, b, c, d, e)
                    rz = 0 not in (
                        s12 - a, s13 - b, s23 - c, s14 - d, s24 - e
                    )
                    while cand:
                        low = cand & -cand
                        cand ^= low
                        f = low.bit_length() - 1 - B
                        # zero-free summands must lie on the Pluecker quadric
                        if lz and f != 0 and a * f - b * e + d * c != 0:
                            continue
                        fr = s34 - f
                        if rz and fr != 0 and (
                            (s12 - a) * fr
                            - (s13 - b) * (s24 - e)
                            + (s14 - d) * (s23 - c)
                        ) != 0:
                            continue
                        left = Scheme(4, (a, b, c, d, e, f))
                        if not decide_torus(left).realizable:
                            continue
                        right = Scheme(
                            4,
                            (s12 - a, s13 - b, s23 - c, s14 - d, s24 - e, fr),
                        )
                        if decide_torus(right).realizable:
                            return (a, b, c, d, e, f)
    return None
