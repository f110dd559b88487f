"""The three realizability conditions and the torus verdict pipeline.

A scheme with nonzero entries is realized on a torus iff

  * every index triple has equal pairwise gcds (the triangle condition),
  * every index quadruple satisfies the Pluecker relation
        m_ij*m_kl - m_ik*m_jl + m_il*m_jk = 0,
  * for every prime p below the curve count there remains an allowed
    residue class for the solution parameter kappa.

Each condition has one check, a function of the scheme that returns the
tuple of its failures, empty on a pass: check_triangle (FailedTriangle),
check_pluecker_full (FailedPluecker) and check_circledast (FailedToz).
A reason of the first two is a NamedTuple of its curve indices, built in
bulk from the index tuples the scans emit; like every result record of
the package it is equal only to a record of its own type.

The last condition is classically stated as a bound toz(m;p) < p on an
exact-rational invariant built from p-valuations.  The verdict is decided
by the admitted kappa classes mod p^nu of the linear forms
D_j = A_j + kappa*B_j, one per column j >= 2 (solver.kappa_constraints:
one p-adic class minus the classes the exclusion tests cut out, counted
exactly), which is what the bound counts: the two agree except that toz
can double-count a forbidden residue shared by two columns, so the count
is authoritative.  p^nu suffices although the exclusion test reads D_j
mod p^(nu+1): it applies only when p | B_j, and then D_j mod p^(nu+1)
depends on kappa mod p^nu alone.  toz_report computes the invariant
literally and is not on the decision path; a FailedToz refutation
computes the toz total of its failing primes only (_circledast_failures),
from the (p, nu) pairs the kappa classes already hold.

decide_torus runs certificate first: after zero reduction it computes the
kappa classes and builds the witness for the canonical kappa, and a
witness that verifies settles realizability without the O(n^3) triangle
and O(n^4) Pluecker checks.  construct_witness verifies the witness by
the determinant pass that would list its missed pairs, and the lifted
system is verified again only when the reduction removed curves.  Only
when no witness comes out are the conditions checked in stage order
(triangle, Pluecker, kappa classes) to list every failure of the first
failing stage, on the reduced scheme; the triangle or Pluecker failures
are moved to the original curve indices once, by _relabel, which leaves
them as they are when zero reduction removed nothing.

The screen.  Both checks list their failures through "bad pairs" B that
every failure contains.  construct_witness may build a system of
primitive vectors v_i that misses some determinants; it lists B, the
pairs (i, j) with det(v_i, v_j) != m_ij, in the pass that verifies the
system, and the refutation hands B and one dense copy of the matrix to
both checks (their private _screen).  A triple with no pair in B is
realized by primitive vectors, so its gcds agree: move v_i to (1, 0) by
SL(2,Z), so v_j = (a, b), v_k = (c, d), m_ij = b, m_ik = d and
m_jk = ad - bc; then gcd(b, ad - bc) = gcd(b, d) as gcd(a, b) = 1, and
gcd(d, ad - bc) = gcd(d, b) as gcd(c, d) = 1.  A quadruple with no pair
in B is the Pluecker relation of four vectors' determinants, an
identity.  The Pluecker check is also offered the bad pairs of each base
pair (a, b) of _BASE_PAIRS with m_ab != 0: the relations say the matrix
has rank 2, and W_ij = (m_ai*m_bj - m_aj*m_bi)/m_ab is the rank-2 matrix
that agrees with rows a and b; m_ij != W_ij exactly when the Pfaffian
mu_abij is nonzero, and every Pfaffian of W vanishes, so every failing
quadruple meets such a pair.

One rule picks the screen of both stages.  For k = 3 (triangle) and
k = 4 (Pluecker), bad pairs B put |B|*C(n-2,k-2) candidates in play, and
a stage's cap admits them while |B| <= C(n,k) // (_SPARSE_SHARE*C(n-2,k-2)),
at most 1/_SPARSE_SHARE of the C(n,k).  Each stage scans through the
fewest bad pairs on offer within its cap: the missed pairs, and for the
Pluecker stage the bad pairs of each base pair, the missed pairs winning
a tie.  A base pair is probed only where the probes cannot cost more than
a quarter of the scan they may save, and probing stops at a screen of one
pair.  When nothing fits the cap, all C(n,k) candidates are tested, by
the same loop, in lexicographic order.

A candidate through a bad pair (p, q) is {p, q} with one index
(triangle) or two indices (Pluecker) off it, and each failure comes out
with its indices increasing, placed by where p and q fall among the
others; a Pfaffian only changes sign when its indices are permuted.  The
run of one bad pair is in lexicographic order: two of its candidates
differ only off {p, q}, and the smallest index in one and not the other
lies in the one whose other indices come first, which therefore sorts
first.  Only the runs of several bad pairs are merged, each failure
listed once.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice, repeat
from math import comb, gcd
from typing import NamedTuple, Optional

from .errors import ConstraintViolation, PreconditionViolated, type_strict
from .intarith import factorize, is_probable_prime, valuation
from .scheme import (
    ReductionLog,
    Scheme,
    Unresolvable,
    dense_rows,
    get,
    lift_system,
    reduce_zeros,
    require_nonzero,
)
from .solver import (
    KappaConstraintSet,
    _base_triple,
    _orbits,
    canonical_kappa,
    construct_witness,
    kappa_constraints,
    verify_system,
)

# ---------------------------------------------------------------------------
# Failure reasons
# ---------------------------------------------------------------------------


def _records(cls, rows) -> tuple:
    """cls(*row) for each index sequence in rows, without calling __new__."""
    return tuple(map(tuple.__new__, repeat(cls), rows))


@type_strict
class FailedTriangle(NamedTuple):
    """A failing triple, its 1-based curve indices increasing."""

    i: int
    j: int
    k: int


@type_strict
class FailedPluecker(NamedTuple):
    """A failing quadruple, its 1-based curve indices increasing."""

    i: int
    j: int
    k: int
    l: int


@type_strict
class FailedToz(NamedTuple):
    prime: int
    total: Fraction


@type_strict
class UnresolvableZero(NamedTuple):
    i: int
    j: int


# ---------------------------------------------------------------------------
# Triangle and Pluecker conditions
# ---------------------------------------------------------------------------

# the checks scan through the bad pairs only while they put at most
# 1/_SPARSE_SHARE of the candidates in play (see the module docstring)
_SPARSE_SHARE = 16
# disjoint base pairs whose bad pairs the Pluecker check is offered, 0-based
_BASE_PAIRS = ((0, 1), (2, 3), (4, 5))


def check_triangle(s: Scheme, *, _screen=None) -> tuple:
    """Every index triple without equal pairwise gcds, as FailedTriangle
    records in lexicographic order; () on a pass and for n < 3.

    Raises PreconditionViolated when an entry is zero.  _screen, when
    given, is the dense rows of s and the pairs construct_witness missed,
    or None for them (see the module docstring).
    """
    require_nonzero(s)
    return _listing(s, _screen, FailedTriangle, _unequal_gcds, list, ())


def check_pluecker_full(s: Scheme, *, _screen=None) -> tuple:
    """Every failing Pluecker relation, as FailedPluecker records in
    lexicographic order; () on a pass and for n < 4.  _screen is as for
    check_triangle.
    """
    return _listing(s, _screen, FailedPluecker, _nonzero_pfaffians, _pairs,
                    _BASE_PAIRS)


def _listing(s: Scheme, screen, cls, scan, spread, bases) -> tuple:
    """The failures of one stage as cls records, in lexicographic order.

    k = len(cls._fields) indices make a candidate, and scan(rows, groups)
    yields the failing ones, where groups holds (i, j, spread(ks)): the
    candidates {i, j} plus k - 2 indices of ks, increasing.  They are
    those through the fewest bad pairs on offer within the cap: the pairs
    of screen, or the bad pairs of a base pair (a, b) of bases, read off
    the failing candidates through (a, b); when none fits, all C(n,k) of
    them.
    """
    n, k = s.n, len(cls._fields)
    if n < k:
        return ()
    rows, bad = (dense_rows(s), None) if screen is None else screen
    cap = comb(n, k) // (_SPARSE_SHARE * comb(n - 2, k - 2))
    bad = bad if bad is not None and len(bad) <= cap else None
    # a probe tests at most C(n-2,k-2) candidates, as many as one bad pair
    # puts in play, so with no missed pairs within the cap, or at least
    # 4*len(bases) of them, the probes cost at most a quarter of the scan
    # they may save
    if bad is None or len(bad) >= 4 * len(bases):
        for a, b in bases:
            if b >= n or not rows[a][b]:
                continue
            limit = cap if bad is None else len(bad) - 1
            # the probe stops after limit + 1 failures; each is {a, b} plus
            # a bad pair, 1-based
            hits = scan(rows, [(a, b, spread(_off(n, a, b)))])
            probe = [tuple(x - 1 for x in f if x != a + 1 and x != b + 1)
                     for f in islice(hits, limit + 1)]
            if len(probe) <= limit:
                bad = probe
                if len(bad) <= 1:  # a failing relation leaves every base one
                    break
    if bad is None:
        tails = [spread(range(j + 1, n)) for j in range(n)]
        groups = ((i, j, tails[j]) for i in range(n) for j in range(i + 1, n))
    else:
        groups = ((p, q, spread(_off(n, p, q))) for p, q in bad)
    found = scan(rows, groups)
    if bad is not None and len(bad) > 1:
        # dict.fromkeys keeps each run in order, so the sort merges len(bad) runs
        found = sorted(dict.fromkeys(found))
    return _records(cls, found)


def _unequal_gcds(rows, groups):
    """The triple {i, j, k}, 1-based and increasing, of each candidate
    whose pairwise gcds are not all equal, in the order of groups; groups
    holds (i, j, ks), 0-based with i < j, whose candidates are (i, j, k)
    for k in ks."""
    for i, j, ks in groups:
        ri, rj = rows[i], rows[j]
        a = ri[j]
        i1, j1 = i + 1, j + 1
        for k in ks:
            b, c = ri[k], rj[k]
            if not gcd(a, b) == gcd(a, c) == gcd(b, c):
                k1 = k + 1
                if k > j:
                    yield i1, j1, k1
                else:
                    yield (i1, k1, j1) if k > i else (k1, i1, j1)


def _off(n: int, p: int, q: int) -> list:
    """The indices 0..n-1 other than p and q, increasing."""
    return [x for x in range(n) if x != p and x != q]


def pluecker_mu(s: Scheme, i: int, j: int, k: int, l: int) -> int:
    """mu_ijkl = m_ij*m_kl - m_ik*m_jl + m_il*m_jk."""
    if not (1 <= i < j < k < l <= s.n):
        raise IndexError(f"need 1 <= i<j<k<l <= {s.n}, got ({i},{j},{k},{l})")
    return (
        get(s, i, j) * get(s, k, l)
        - get(s, i, k) * get(s, j, l)
        + get(s, i, l) * get(s, j, k)
    )


def _nonzero_pfaffians(rows, groups):
    """The quadruple {i, j, k, l}, 1-based and increasing, of each
    candidate whose Pfaffian m_ij*m_kl - m_ik*m_jl + m_il*m_jk is nonzero,
    in the order of groups.

    groups holds (i, j, [(k, ls), ...]), 0-based with i < j and k < l for
    l in ls: the candidates are (i, j, k, l) for l in ls.  k and l may lie
    anywhere off {i, j}; the Pfaffian of the permuted 4 x 4 submatrix only
    changes sign.
    """
    for i, j, kls in groups:
        ri, rj = rows[i], rows[j]
        m_ij = ri[j]
        i1, j1 = i + 1, j + 1
        for k, ls in kls:
            m_ik, m_jk, rk = ri[k], rj[k], rows[k]
            k1 = k + 1
            for l in ls:
                if m_ij * rk[l] - m_ik * rj[l] + ri[l] * m_jk:
                    l1 = l + 1
                    if k > j:
                        yield i1, j1, k1, l1
                    elif k > i:
                        yield (i1, k1, l1, j1) if l < j else (i1, k1, j1, l1)
                    elif l < i:
                        yield k1, l1, i1, j1
                    else:
                        yield (k1, i1, l1, j1) if l < j else (k1, i1, j1, l1)


def _pairs(ks) -> list:
    """(k, ls) for each k of the increasing ks, ls the members after it:
    the candidates of _nonzero_pfaffians for every pair k < l of ks."""
    return [(k, ks[t:]) for t, k in enumerate(ks, 1)]


# ---------------------------------------------------------------------------
# toz
# ---------------------------------------------------------------------------


@type_strict
class PrimeTozEntry(NamedTuple):
    prime: int
    nu: int  # valuation of g_123
    valuations: tuple  # ((i, j), valuation of m_ij), in column order
    contributions: tuple  # Fractions, one per column j = 2..n
    total: Fraction


@type_strict
class TozReport(NamedTuple):
    base_gcd: int
    per_prime: tuple  # tuple[PrimeTozEntry, ...], one per prime of base_gcd
    checked_primes: tuple  # ((p, total) for primes p < n)


def _primes_below(n: int):
    return [c for c in range(2, n) if is_probable_prime(c)]


def _toz_contributions(s: Scheme, p: int, nu: int) -> tuple:
    """The column contributions to toz(m;p), j = 2..n, where
    nu = nu_p(g_123); they read only the entries m_1j, m_2j and m_3j."""

    def v(i, j):
        return valuation(get(s, i, j), p)

    contribs = [Fraction(1)]  # column j = 2
    v12, v13, v23 = v(1, 2), v(1, 3), v(2, 3)
    contribs.append(Fraction(1) if 0 < v13 == v23 == v12 else Fraction(0))
    for j in range(4, s.n + 1):
        v1, v2, v3 = v(1, j), v(2, j), v(3, j)
        if 0 < v1 == v2 == v3 <= nu:
            contribs.append(Fraction(p) ** (v1 - nu))
        else:
            contribs.append(Fraction(0))
    return tuple(contribs)


def _toz_entry(s: Scheme, p: int, nu: int) -> PrimeTozEntry:
    """toz(m;p) with the valuations of every entry, for the report."""
    vals = tuple(
        ((i, j), valuation(get(s, i, j), p))
        for j in range(2, s.n + 1)
        for i in range(1, j)
    )
    contribs = _toz_contributions(s, p, nu)
    return PrimeTozEntry(p, nu, vals, contribs, sum(contribs))


def toz_report(s: Scheme) -> TozReport:
    """Exact-rational valuation invariant with respect to the base triple.

    For each prime p | g_123 with nu = nu_p(g_123), column j contributes

        1                      j = 2,
        1                      j = 3 and nu_p(m_13) = nu_p(m_23) = nu_p(m_12) > 0,
        p^(nu_j - nu)          j >= 4 and 0 < nu_p(m_1j) = nu_p(m_2j) = nu_p(m_3j) = nu_j <= nu,
        0                      otherwise,

    and toz(m;p) is the column sum.  Primes not dividing g_123 total 0.
    """
    if s.n < 3:
        raise PreconditionViolated("toz needs at least 3 curves")
    require_nonzero(s)
    g123 = _base_triple(s)[0]
    per = tuple(_toz_entry(s, p, nu) for p, nu in factorize(g123).pairs)
    totals = {e.prime: e.total for e in per}
    checked = tuple(
        (p, totals.get(p, Fraction(0))) for p in _primes_below(s.n)
    )
    return TozReport(g123, per, checked)


def check_circledast(s: Scheme) -> tuple:
    """Every prime p < n with no admitted kappa class, as FailedToz(p,
    total) records, primes increasing; () on a pass and for n <= 2.

    total is the per-column toz value.  Primes not dividing g_123 always
    pass.  Meaningful once the triangle and Pluecker conditions hold,
    which is the order decide_torus uses; raises PreconditionViolated
    when the base triple's gcds differ or an entry is zero.
    """
    if s.n <= 2:
        return ()
    return _circledast_failures(s, kappa_constraints(s))


def _circledast_failures(s: Scheme, cons: KappaConstraintSet):
    """FailedToz(p, toz total) for each prime p < n with no allowed kappa
    class, primes increasing; cons supplies the (p, nu) pairs of g_123."""
    return tuple(
        FailedToz(pc.prime, sum(_toz_contributions(s, pc.prime, pc.nu)))
        for pc in cons.per_prime
        if pc.prime < s.n and pc.count == 0
    )


# ---------------------------------------------------------------------------
# Full verdict
# ---------------------------------------------------------------------------


@type_strict
class Verdict(NamedTuple):
    realizable: bool
    reasons: tuple  # the failure records; empty iff realizable
    witness: Optional[tuple]  # tuple[CurveClass, ...], original indexing
    used_empty: bool
    reduction: Optional[ReductionLog]
    kappa: Optional[int] = None
    constraints: Optional[KappaConstraintSet] = None


def decide_torus(s: Scheme) -> Verdict:
    """Full pipeline, certificate first.

    1. Zero reduction; an unresolvable zero pair refutes at once, and
       fewer than 3 curves left take their first orbit as the witness.
    2. When the base triple's three gcds agree: kappa classes (which
       factor g_123, once per decision), canonical kappa and the witness
       for it, verified by one determinant pass that also lists the
       pairs it misses.  A witness that verifies proves realizability,
       so the verdict is returned without the triangle and Pluecker
       checks or the toz report; the lifted witness is verified again
       only when the reduction removed curves.
    3. Otherwise the conditions are checked in order, triangle, Pluecker,
       then kappa classes (reusing those of step 2), and every failure
       of the first failing stage is listed; the triangle and Pluecker
       checks are screened by the pairs that step 2's system missed.

    Realizable verdicts carry a verified witness lifted back through the
    reduction; failure reasons use the original curve indices.  The
    verdict is the one the plain stage order gives: a verified witness
    satisfies every condition, and a realizable scheme's canonical kappa
    always yields one.
    """
    red = reduce_zeros(s)
    if isinstance(red, Unresolvable):
        return Verdict(
            False,
            (UnresolvableZero(red.i, red.j),),
            None,
            False,
            None,
        )
    r = red.reduced
    if r.n < 3:
        first = next(_orbits(r, None))
        system = lift_system(red, first.system)
        kappa = first.kappa if r.n == 2 else None
        return _realizable(s, red, system, kappa, None)

    cons = missed = None
    m12, m13, m23 = r.entries[:3]
    if gcd(m12, m13) == gcd(m12, m23) == gcd(m13, m23):
        cons = kappa_constraints(r)
        if cons.feasible():
            kappa = canonical_kappa(cons)
            try:
                witness = construct_witness(r, kappa)
            except ConstraintViolation as exc:
                missed = exc.missed
            else:
                system = lift_system(red, witness.system)
                # verified on r, which is s when no step removed a curve
                return _realizable(s, red, system, kappa, cons, not red.steps)
    return _refutation(red, cons, missed)


def _refutation(red, cons, missed) -> Verdict:
    """Stage-order failures of a reduced scheme that has no witness.

    missed is every pair that construct_witness's system missed, or None
    when it built none.  The triangle and Pluecker checks, looked up in
    this module at call time, share one dense copy of r and missed as
    their screen; the first one that fails gives every reason, on the
    original curve indices.  The kappa stage comes last.
    """
    r = red.reduced
    screen = (dense_rows(r), missed)
    for check in (check_triangle, check_pluecker_full):
        failures = check(r, _screen=screen)
        if failures:
            return Verdict(False, _relabel(red, failures), None, False, red)
    toz_fail = _circledast_failures(r, cons)
    if toz_fail:
        return Verdict(False, toz_fail, None, False, red, constraints=cons)
    # Once the three conditions hold, the canonical kappa yields a witness;
    # reaching this line means an internal fault.
    raise AssertionError(f"internal fault: no witness and no failure on {r}")


def _relabel(red, failures) -> tuple:
    """Triangle or Pluecker failures on the reduced scheme, on the original
    curve indices; the same tuple when the reduction removed nothing."""
    if not red.steps:
        return failures
    # idx[t] is the original index of reduced curve t; survivors increase,
    # so each reason stays increasing and the order lexicographic
    idx = (0, *red.survivors)
    return _records(type(failures[0]), (map(idx.__getitem__, f) for f in failures))


def _realizable(s, red, system, kappa, cons, verified=False) -> Verdict:
    if not verified and not verify_system(s, system):
        raise AssertionError(
            f"internal fault: lifted witness fails verification on {s}"
        )
    used_empty = any(v.is_empty for v in system)
    return Verdict(True, (), system, used_empty, red, kappa=kappa,
                   constraints=cons)
