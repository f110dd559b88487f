"""Genus bounds, genus-2 decomposition of 3-schemes, the endemic 4-scheme
family, and a bounded search for torus+torus decompositions.

A scheme sum m = m' + m'' with both summands torus-realizable puts m on a
genus-2 surface (connected sum along compatible arcs); for 3-schemes such a
split always exists, while the endemic family (q; pq,pq; pq,pq,p) for odd
primes p != q admits none.  The bounded search works for every n and keeps
each slot's candidate values as a bitmask.  It prunes by sub-triple
realizability, whose masks it builds in closed form, and by the Pluecker
relations, which hold in every realizable scheme, zero entries included.
It also prunes by their cross-term: mu is quadratic, so a split
s = m' + m'' with mu(m') = mu(m'') = 0 satisfies the linear equation
B(m', s) = mu(s), B the polarization of mu.  With the left summand's
Pluecker relation, that equation solves each quadruple's last two slots
by Cramer's rule as soon as its first slot in the last column is tried.

The left summand's triple mask at (m'_ac, m'_aj) asks whether
(m'_ac; m'_aj, m'_cj) is realizable, which reads no entry of the scheme,
so searches in one process share those masks through a cache of at most
4096 of them (every (m'_ac, m'_aj) pair up to bound 31), each of
2*bound + 1 bits, about 0.8 MB when full at bounds <= 31.  The right
summand's masks read the scheme and are kept per search.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import NamedTuple, Optional, Union

from .errors import (
    DomainError,
    InvalidShape,
    PreconditionViolated,
    type_strict,
)
from .conditions import Verdict, decide_torus, pluecker_mu
from .intarith import is_probable_prime
from .scheme import Scheme, _integer, _pos, get, permute, scheme_sum

# bounded_decomposition_search refuses a larger bound before it builds any
# mask: a slot's mask has 2*bound + 1 bits, about 256 KiB at this bound
MAX_SEARCH_BOUND = 2**20


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


@type_strict
class Decomposition(NamedTuple):
    left: Scheme
    right: Scheme
    left_verdict: Verdict
    right_verdict: Verdict
    degenerate: bool = False  # one summand is the zero scheme


@type_strict
class AlreadyTorus(NamedTuple):
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


def _progression(x: int, r: int, g: int, lo: int, hi: int, bound: int) -> int:
    """Bitmask (bit v + bound) of the v in [lo, hi] with x*v = r (mod g).

    With h = gcd(x, g) the congruence has no solution unless h | r, and
    otherwise is v = (r/h)*(x/h)^-1 (mod g/h): one arithmetic progression,
    whose bits a repunit in base 2^(g/h) sets at once.
    """
    h = gcd(x, g)
    if r % h:
        return 0
    g //= h
    lo += (r // h * pow(x // h, -1, g) - lo) % g
    if lo > hi:
        return 0
    count = (hi - lo) // g + 1
    if count == 1:
        return 1 << (lo + bound)
    return ((1 << g * count) - 1) // ((1 << g) - 1) << (lo + bound)


def _quotient_mask(p: int, q: int, d: int, bound: int) -> int:
    """Bitmask (bit v + bound) of the v in [-bound, bound] for which
    (p*v - q)/d is an integer in [-bound, bound]; d != 0.

    One congruence, p*v = q (mod d), and one interval, that of the v with
    p*v in [q - bound*|d|, q + bound*|d|].
    """
    if d < 0:
        p, q, d = -p, -q, -d
    if p < 0:
        p, q = -p, -q
    if p:
        lo = max(-bound, -((bound * d - q) // p))
        hi = min(bound, (q + bound * d) // p)
    elif -bound * d <= q <= bound * d:
        lo, hi = -bound, bound
    else:
        return 0
    return _progression(p, q, d, lo, hi, bound)


def _triple_mask(x: int, y: int, c: int, bound: int) -> int:
    """Bitmask (bit v + bound) of the v in [-bound, bound] with the 3-scheme
    (x; y, c - v) torus-realizable.

    Closed form of the triple's realizability, zeros included: with
    x = y = 0 every z = c - v is realizable, and with exactly one of x, y
    zero, the other being t, only z in {0, t, -t}.  With both nonzero and
    g = gcd(x, y), the triangle condition gcd(x, z) = gcd(y, z) = g says
    z = g*u with gcd(u, (x/g)*(y/g)) = 1 (so z = 0 only when x = +-y), and
    when g is even and x/g, y/g are both odd, the 2-valuations of x, y and
    z must not all coincide, so u must be even too.
    """
    if not (x and y):
        t = abs(x or y)
        if not t:
            return (1 << (2 * bound + 1)) - 1
        mask = 0
        for v in (c - t, c, c + t):
            if -bound <= v <= bound:
                mask |= 1 << (v + bound)
        return mask
    g = gcd(x, y)
    p = x // g * (y // g)
    step = 2 * g if p % 2 and not g % 2 else g
    mask = 0
    for z in range(c - bound + (bound - c) % step, c + bound + 1, step):
        if gcd(z // g, p) == 1:
            mask |= 1 << (c - z + bound)
    return mask


@lru_cache(maxsize=4096)
def _left_mask(u: int, w: int, bound: int) -> int:
    """_triple_mask(u, w, 0, bound), the left summand's triple mask at
    m'_ac = u, m'_aj = w, kept for every search in the process; 4096
    entries hold the (2*bound + 1)**2 pairs (u, w) of any bound <= 31."""
    return _triple_mask(u, w, 0, bound)


def bounded_decomposition_search(
    s: Scheme, bound: int
) -> Optional[Decomposition]:
    """First m' (lexicographic in column order over entries in
    [-bound, bound]) with both m' and s - m' torus-realizable, or None.

    None does not prove the scheme endemic; it is evidence at the stated
    bound.  Entries of a realizable scheme are 2x2 determinants of its
    curves' vectors, Empty being the zero vector, so every sub-triple is
    realizable and every Pluecker relation
    m_ab*m_cj = m_ac*m_bj - m_aj*m_bc (a < b < c < j) holds, zero entries
    included.  The scan fills one slot at a time and keeps, as a bitmask
    (bit v+bound for value v), only the values on which the quadruples and
    triples completing at that slot hold in both summands.  A triple's
    mask is built in closed form (_triple_mask) for each summand and
    memoized per (target triple, m'_ac, m'_aj).  The left summand's factor,
    the realizability of (m'_ac; m'_aj, m'_cj), is a function of m'_ac,
    m'_aj and the bound alone, no entry of s, so it is also kept across
    searches: a process-wide cache (_left_mask) of at most 4096 masks of
    2*bound + 1 bits each, enough for every (m'_ac, m'_aj) pair of a
    search with bound <= 31.  The right summand's factor and the combined
    mask read the target triple and stay in the per-search memo.

    Each quadruple (a, b, c, j) also gives the linear cross-term equation
    B(m', s) = mu_abcj(s) on m', where B(x, y) = mu(x + y) - mu(x) - mu(y)
    is the polarization of mu = m_ab*m_cj - m_ac*m_bj + m_aj*m_bc.  It
    holds because B(m', s) = 2*mu(m') + B(m', m'') equals
    mu(s) + mu(m') - mu(m''), and both summands satisfy Pluecker.  At each
    slot of the equation but its last, the residual (mu(s) minus the terms
    at the slots filled so far) must be divisible by the gcd g of the
    coefficients at later slots, so a value v stays only if
    residual - c*v = 0 (mod g), c the slot's coefficient: one arithmetic
    progression, memoized per (equation, slot, residual mod g).

    Pair elimination: at slot (a, j), with m'_ab, m'_ac, m'_bc chosen and
    v = m'_aj tried, the quadruple's last two slots y = m'_bj and
    z = m'_cj satisfy two linear equations, the left summand's Pluecker
    relation m'_ab*z - m'_ac*y = -v*m'_bc and the cross-term equation
    s_ab*z - s_ac*y = R0 - s_bc*v, where
    R0 = mu(s) - (s_cj*m'_ab - s_bj*m'_ac + s_aj*m'_bc).  With
    det = m'_ab*s_ac - m'_ac*s_ab nonzero, Cramer's rule gives
    y = ((m'_ab*s_bc - m'_bc*s_ab)*v - m'_ab*R0)/det and
    z = ((m'_ac*s_bc - s_ac*m'_bc)*v - m'_ac*R0)/det, so v stays only if
    both are integers in [-bound, bound]: per unknown one congruence and
    one interval, read off in closed form (_quotient_mask).  At slot
    (b, j) the same formula fixes y to a single bit, and z is left to the
    quadruple check at slot (c, j).  det = 0 prunes nothing.  Both equations
    hold in every split into two realizable summands (the first is
    Pluecker in m', the second the cross-term above), so a value removed
    here completes no split.

    Nothing realizable is pruned, so the first hit matches the unpruned scan.
    A bound outside [0, MAX_SEARCH_BOUND] (2**20) is a DomainError.

    MAX_SEARCH_BOUND guards memory, not time.  On the endemic 4-schemes
    (q; pq,pq; pq,pq,p), p != q in {3, 5, 7, 11, 13}, a search takes
    0.25-1.7 ms at bound 8, 0.46-4.6 ms at bound 12, 2.0-12.9 ms at bound
    18 and 16-53 ms at bound 30 with the left masks cached, and
    0.26-2.0, 0.50-5.9, 2.8-16.5 and 20-61 ms from an empty cache
    (tools/bench_series.py, BENCH_34.json: Python 3.11.7, 2-core x86_64);
    the (3, 5) search at bound 2**20 did not finish in 40 s.
    """
    bound = _integer(bound, "bound")
    if bound < 0:
        raise DomainError(f"bound must be >= 0, got {bound}")
    if bound > MAX_SEARCH_BOUND:
        raise DomainError(f"bound must be <= {MAX_SEARCH_BOUND}, got {bound}")
    n, target = s.n, s.entries
    k, full = len(target), (1 << (2 * bound + 1)) - 1
    pairs = [(i, j) for j in range(2, n + 1) for i in range(1, j)]
    tables = {}  # target triple -> mask per (m'_ac, m'_aj), built on demand
    # relations completing at slot (c, j): triples (a, c, j) and
    # quadruples (a, b, c, j)
    quads = [[] for _ in range(k)]
    triples = [[] for _ in range(k)]
    # quadruples (a, b, c, j) by the slots (a, j), where y = m'_bj and
    # z = m'_cj are solved for, and (b, j), where y is fixed
    elims = [[] for _ in range(k)]
    fixes = [[] for _ in range(k)]
    # cross-term congruences per slot: (earlier terms, coefficient, modulus,
    # mu(s), mask per residual mod the modulus)
    cross = [[] for _ in range(k)]
    for t, (c, j) in enumerate(pairs):
        for a in range(1, c):
            tac, taj = _pos(a, c), _pos(a, j)
            key = (target[tac], target[taj], target[t])
            triples[t].append((tac, taj, tables.setdefault(key, {})) + key)
            for b in range(a + 1, c):
                tab, tbj, tbc = _pos(a, b), _pos(b, j), _pos(b, c)
                quads[t].append((tab, tac, tbj, taj, tbc))
                mu = pluecker_mu(s, a, b, c, j)
                quad = (tab, tac, tbc, taj, target[tab], target[tac],
                        target[tbc], target[t], target[tbj], target[taj], mu)
                elims[taj].append(quad)
                fixes[tbj].append(quad)
                # B(m', s) = mu(s), its terms in slot order
                terms = [
                    (u, x)
                    for u, x in (
                        (tab, target[t]), (tac, -target[tbj]),
                        (tbc, target[taj]), (taj, target[tbc]),
                        (tbj, -target[tac]), (t, target[tab]),
                    )
                    if x
                ]
                g = 0
                for i in range(len(terms) - 1, 0, -1):
                    g = gcd(g, terms[i][1])
                    # g = 1 prunes nothing; the last term needs no entry,
                    # since the quadruple check in both summands implies
                    # the equation
                    if g > 1:
                        u, x = terms[i - 1]
                        cross[u].append((terms[:i - 1], x, g, mu, {}))
    chosen, rest = [0] * k, list(target)  # m' and s - m'
    cands = [0] * k  # values of each slot not yet tried
    t = 0
    while True:
        if t == k:
            left, right = Scheme(n, tuple(chosen)), Scheme(n, tuple(rest))
            lv = decide_torus(left)
            if lv.realizable:
                rv = decide_torus(right)
                if rv.realizable:
                    degenerate = not any(chosen) or not any(rest)
                    return Decomposition(left, right, lv, rv, degenerate)
            t -= 1
        else:
            m = full
            # cheapest first: single bits, then memoized masks, then the
            # closed forms of the pair elimination
            for (tab, tac, tbc, taj, sab, sac, sbc, scj, sbj, saj,
                 mu) in fixes[t]:
                # y of the pair elimination; slot (a, j) kept m'_aj only
                # where y is an integer in [-bound, bound]
                xab, xac, xbc = chosen[tab], chosen[tac], chosen[tbc]
                det = xab * sac - xac * sab
                if det:
                    r = mu - scj * xab + sbj * xac - saj * xbc
                    y = ((xab * sbc - xbc * sab) * chosen[taj] - xab * r) // det
                    m &= 1 << (y + bound)
                    if not m:
                        break
            for tab, tac, tbj, taj, tbc in quads[t] if m else ():
                # the relation fixes the slot when m_ab != 0 and otherwise
                # needs its right-hand side to vanish
                x = chosen[tab]
                y = chosen[tac] * chosen[tbj] - chosen[taj] * chosen[tbc]
                if x:
                    v, r = divmod(y, x)
                    if r or not -bound <= v <= bound:
                        m = 0
                        break
                    m &= 1 << (v + bound)
                elif y:
                    m = 0
                    break
                x = rest[tab]
                y = rest[tac] * rest[tbj] - rest[taj] * rest[tbc]
                if x:
                    v, r = divmod(y, x)
                    v = target[t] - v
                    if r or not -bound <= v <= bound:
                        m = 0
                        break
                    m &= 1 << (v + bound)
                elif y:
                    m = 0
                    break
                if not m:
                    break
            for tac, taj, table, sac, saj, scj in triples[t] if m else ():
                u, w = chosen[tac], chosen[taj]
                mask = table.get((u, w))
                if mask is None:
                    mask = table[u, w] = _left_mask(u, w, bound) & (
                        _triple_mask(sac - u, saj - w, scj, bound))
                m &= mask
                if not m:
                    break
            for before, x, g, r, masks in cross[t] if m else ():
                # the residual left for this slot and the later ones must
                # be divisible by the gcd of the later coefficients
                for u, y in before:
                    r -= y * chosen[u]
                r %= g
                mask = masks.get(r)
                if mask is None:
                    mask = masks[r] = _progression(x, r, g, -bound, bound,
                                                   bound)
                m &= mask
                if not m:
                    break
            for (tab, tac, tbc, _, sab, sac, sbc, scj, sbj, saj,
                 mu) in elims[t] if m else ():
                # Cramer's rule for y = m'_bj and z = m'_cj
                xab, xac, xbc = chosen[tab], chosen[tac], chosen[tbc]
                det = xab * sac - xac * sab
                if det:
                    r = mu - scj * xab + sbj * xac - saj * xbc
                    m &= _quotient_mask(xab * sbc - xbc * sab, xab * r, det,
                                        bound)
                    if m:
                        m &= _quotient_mask(xac * sbc - sac * xbc, xac * r,
                                            det, bound)
                    if not m:
                        break
            cands[t] = m
        while t >= 0 and not cands[t]:
            t -= 1
        if t < 0:
            return None
        m = cands[t]
        low = m & -m
        cands[t] = m ^ low
        v = low.bit_length() - 1 - bound
        chosen[t], rest[t] = v, target[t] - v
        t += 1
