"""Genus bounds, genus-2 decomposition of 3-schemes, the endemic 4-scheme
family, and a bounded search for torus+torus decompositions.

A scheme sum m = m' + m'' with both summands torus-realizable puts m on a
genus-2 surface (connected sum along compatible arcs); for 3-schemes such a
split always exists, while the endemic family (q; pq,pq; pq,pq,p) for odd
primes p != q admits none.  The bounded search works for every n: it prunes
by sub-triple realizability and by the Pluecker relations, which hold in
every realizable scheme, zero entries included.  It also prunes by their
cross-term: mu is quadratic, so a split s = m' + m'' with mu(m') =
mu(m'') = 0 satisfies the linear equation B(m', s) = mu(s), B the
polarization of mu.  The search memoizes its masks, not _realizable3.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional, Union

from .errors import DomainError, InvalidShape, PreconditionViolated
from .conditions import Verdict, decide_torus, pluecker_mu
from .intarith import is_probable_prime
from .scheme import Scheme, _integer, _pos, get, permute, scheme_sum


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
    """First m' (lexicographic in column order over entries in
    [-bound, bound]) with both m' and s - m' torus-realizable, or None.

    None does not prove the scheme endemic; it is evidence at the stated
    bound.  Entries of a realizable scheme are 2x2 determinants of its
    curves' vectors, Empty being the zero vector, so every sub-triple is
    realizable and every Pluecker relation
    m_ab*m_cj = m_ac*m_bj - m_aj*m_bc (a < b < c < j) holds, zero entries
    included.  The scan fills one slot at a time and keeps, as a bitmask
    (bit v+bound for value v), only the values on which the quadruples and
    triples completing at that slot hold in both summands.

    Each quadruple (a, b, c, j) also gives the linear cross-term equation
    B(m', s) = mu_abcj(s) on m', where B(x, y) = mu(x + y) - mu(x) - mu(y)
    is the polarization of mu = m_ab*m_cj - m_ac*m_bj + m_aj*m_bc.  It
    holds because B(m', s) = 2*mu(m') + B(m', m'') equals
    mu(s) + mu(m') - mu(m''), and both summands satisfy Pluecker.  At each
    slot of the equation but its last, the residual (mu(s) minus the terms
    at the slots filled so far) must be divisible by the gcd g of the
    coefficients at later slots, so a value v stays only if
    residual - c*v = 0 (mod g), c the slot's coefficient.  A search
    memoizes cross-term masks per (equation, slot, residual mod g) and
    triple masks per (target triple, m'_ac, m'_aj), not _realizable3.
    Nothing realizable is pruned, so the first hit matches the unpruned scan.
    """
    bound = _integer(bound, "bound")
    if bound < 0:
        raise DomainError(f"bound must be >= 0, got {bound}")
    n, target = s.n, s.entries
    k, full = len(target), (1 << (2 * bound + 1)) - 1
    pairs = [(i, j) for j in range(2, n + 1) for i in range(1, j)]
    tables = {}  # target triple -> mask per (m'_ac, m'_aj), built on demand
    # relations completing at slot (c, j): triples (a, c, j) and
    # quadruples (a, b, c, j)
    quads = [[] for _ in range(k)]
    triples = [[] for _ in range(k)]
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
                mu = pluecker_mu(s, a, b, c, j)
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
            for before, x, g, r, masks in cross[t]:
                # the residual left for this slot and the later ones must
                # be divisible by the gcd of the later coefficients
                for u, y in before:
                    r -= y * chosen[u]
                r %= g
                mask = masks.get(r)
                if mask is None:
                    mask = masks[r] = sum(
                        1 << (v + bound)
                        for v in range(-bound, bound + 1)
                        if (r - x * v) % g == 0
                    )
                m &= mask
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
            if m:
                for tac, taj, table, sac, saj, scj in triples[t]:
                    u, w = chosen[tac], chosen[taj]
                    mask = table.get((u, w))
                    if mask is None:
                        mask = table[u, w] = sum(
                            1 << (v + bound)
                            for v in range(-bound, bound + 1)
                            if _realizable3(u, w, v)
                            and _realizable3(sac - u, saj - w, scj - v)
                        )
                    m &= mask
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
