"""The three realizability conditions and the torus verdict pipeline.

A scheme with nonzero entries is realized on a torus iff

  * every index triple has equal pairwise gcds (the triangle condition),
  * every index quadruple satisfies the Pluecker relation
        m_ij*m_kl - m_ik*m_jl + m_il*m_jk = 0,
  * for every prime p below the curve count there remains an allowed
    residue class for the solution parameter kappa.

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
failing stage.  The triangle and Pluecker stages are one loop
over the two checks, each returning a StageCheck on the reduced scheme;
the first failing stage's reasons are moved to the original curve indices
once, by _relabel, which leaves them as they are when zero reduction
removed nothing.  A reason of either stage is a NamedTuple of its curve
indices (FailedTriangle, FailedPluecker), equal only to a reason of its
own type, built in bulk from the index tuples the scans emit.

Both checks are output-sensitive through "bad pairs" that every failure
contains.  A scheme usually reaches the refutation after construct_witness
has built a system of primitive vectors that misses only some
determinants; the pairs (i, j) it misses are bad pairs for both stages.
A triple with none is realized by primitive vectors, so its gcds agree,
and a quadruple with none is the Pluecker identity of four vectors'
determinants.  construct_witness lists every such pair, in one pass that
also verifies the system; the refutation hands them and one dense copy
of the matrix to both checks, and each check applies its own cap to
them.  Without such a system, or past the cap, the triangle check walks
all C(n,3) triples of a dense copy of the matrix, and the Pluecker check
takes the bad pairs of a base: the relations say the matrix has rank 2,
and for a base pair (a, b) with m_ab != 0 the rank-2 matrix W that
agrees with rows a and b differs from the scheme exactly on the pairs
(i, j) with mu_abij != 0; all Pfaffians of W vanish.  The base is the one of (1,2),
(3,4), (5,6) with the fewest bad pairs.  Each bad pair is scanned against
every index (triangle) or pair of indices (Pluecker) off it, and each
failure comes out with its indices increasing, placed by where the pair
falls among them, so the scan of one bad pair lists its failures in
lexicographic order without a sort; only the runs of several bad pairs
are merged, each failure listed once.  When the bad pairs would put more
than 1/_SPARSE_SHARE of the triples or quadruples in play, all of them
are tested, by the same loop, in lexicographic order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, repeat
from math import comb, gcd
from typing import NamedTuple, Optional, Union

from .errors import ConstraintViolation, PreconditionViolated
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
    _mismatches,
    _orbits,
    canonical_kappa,
    construct_witness,
    kappa_constraints,
    verify_system,
)

# ---------------------------------------------------------------------------
# Failure reasons
# ---------------------------------------------------------------------------


def _same_reason(self, other) -> bool:
    """Equality strict in the type: a reason equals a reason of its own
    class with the same indices and nothing else, a plain tuple included,
    in either operand order."""
    return type(other) is type(self) and tuple.__eq__(self, other)


def _other_reason(self, other) -> bool:
    return not _same_reason(self, other)


def _records(cls, rows) -> tuple:
    """cls(*row) for each index sequence in rows, without calling __new__."""
    return tuple(map(tuple.__new__, repeat(cls), rows))


class FailedTriangle(NamedTuple):
    """A failing triple, its 1-based curve indices increasing."""

    i: int
    j: int
    k: int
    __eq__, __ne__, __hash__ = _same_reason, _other_reason, tuple.__hash__


class FailedPluecker(NamedTuple):
    """A failing quadruple, its 1-based curve indices increasing."""

    i: int
    j: int
    k: int
    l: int
    __eq__, __ne__, __hash__ = _same_reason, _other_reason, tuple.__hash__


@dataclass(frozen=True)
class FailedToz:
    prime: int
    total: Fraction


@dataclass(frozen=True)
class UnresolvableZero:
    i: int
    j: int


Reason = Union[FailedTriangle, FailedPluecker, FailedToz, UnresolvableZero]


@dataclass(frozen=True)
class StageCheck:
    """Every failure of the triangle or the Pluecker stage, in order."""

    failures: tuple  # tuple[FailedTriangle, ...] or tuple[FailedPluecker, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def failure(self) -> Optional[Reason]:
        return self.failures[0] if self.failures else None


# ---------------------------------------------------------------------------
# Triangle and Pluecker conditions
# ---------------------------------------------------------------------------

# the screens scan through the bad pairs B only while they put at most
# 1/_SPARSE_SHARE of the triples or quadruples in play (see _BASE_PAIRS)
_SPARSE_SHARE = 16


def check_triangle(s: Scheme, system=None, *, _screen=None) -> StageCheck:
    """Every index triple without equal pairwise gcds, in lexicographic
    order.

    system, when given, is a curve system of s's size, as
    construct_witness attaches to its ConstraintViolation (another size
    raises InvalidShape).  When all its vectors are primitive, let B be
    the pairs (i, j) whose determinant det(v_i, v_j) misses m_ij.  A triple with no pair in B is realized by
    primitive vectors, and its gcds are equal: move v_i to (1, 0) by
    SL(2,Z), so v_j = (a, b), v_k = (c, d), m_ij = b, m_ik = d and
    m_jk = ad - bc; then gcd(b, ad - bc) = gcd(b, d) as gcd(a, b) = 1, and
    gcd(d, ad - bc) = gcd(d, b) as gcd(c, d) = 1.  So every failing triple
    contains a pair of B, and when |B| * (n - 2) <= C(n,3)/_SPARSE_SHARE
    only the triples (p, q, k) through each (p, q) of B are tested, for k
    off {p, q} increasing.  Each failure comes out with its indices
    increasing, k placed before p, between p and q or after q, and the run
    of one pair is in lexicographic order: of the triples of k < k', the
    smallest index in one and not the other is k, in the first.  The runs
    of several pairs are merged, each failure listed once.  Otherwise (no
    system, a vector that is not primitive, or B too large) all C(n,3)
    triples are tested, by the same loop, in lexicographic order.  With
    _screen, the rows and B that _refutation computed once for both
    checks, system is not read.
    """
    require_nonzero(s)
    n = s.n
    if n < 3:
        return StageCheck(())
    rows, bad = _screen_of(s, system) if _screen is None else _screen
    if bad is not None and len(bad) > comb(n, 3) // (_SPARSE_SHARE * (n - 2)):
        bad = None
    if bad is None:
        groups = ((i, j, range(j + 1, n)) for i in range(n) for j in range(i + 1, n))
    else:
        groups = ((p, q, _off(n, p, q)) for p, q in bad)
    triples = _unequal_gcds(rows, groups)
    if bad is not None and len(bad) > 1:
        # dict.fromkeys keeps each run in order, so the sort merges len(bad) runs
        triples = sorted(dict.fromkeys(triples))
    return StageCheck(_records(FailedTriangle, triples))


def _screen_of(s: Scheme, system):
    """The dense rows of s and the pairs (i, j), 0-based, whose determinant
    in system misses m_ij, or None for the pairs when there is no system
    or a vector of it is not primitive.  A system of the wrong size raises
    InvalidShape, primitive or not."""
    rows = dense_rows(s)
    if system is None:
        return rows, None
    bad = list(_mismatches(s, system))
    return rows, bad if all(v.is_primitive() for v in system) else None


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


def check_pluecker_full(s: Scheme, system=None, *, _screen=None) -> StageCheck:
    """Every failing Pluecker relation, in lexicographic order; vacuous
    pass for n < 4.

    The screen lists the failures through a set of "bad pairs" that every
    failing quadruple meets.  When system is given (primitive vectors of
    s's size, as for check_triangle), the bad pairs are those whose
    determinant misses m_ij: a quadruple with none is the Pluecker
    relation of the determinants of four vectors, an identity, so it
    holds.  Without such a system, or when it misses more than
    C(n,4)/(_SPARSE_SHARE*C(n-2,2)) entries, the relations hold iff the
    matrix has rank 2, and for a base pair (a, b) with m_ab != 0, W_ij = (m_ai*m_bj - m_aj*m_bi)/m_ab is the rank-2
    matrix that agrees with rows a and b; m_ij != W_ij exactly when the
    Pfaffian mu_abij is nonzero, which makes (i, j) a bad pair, and every
    Pfaffian of W vanishes.  Of the base pairs (1,2), (3,4), (5,6) the one
    with the fewest bad pairs is taken.  Each bad pair (p, q) is scanned
    as the base pair was: every (p, q, k, l), k < l off {p, q}.  A
    Pfaffian only changes sign when its indices are permuted, so each
    failure comes out as {p, q, k, l} increasing, the order fixed by where
    p and q fall among k and l, and the run of one bad pair is already in
    lexicographic order: of the quadruples of (k, l) < (k', l'), the
    smallest index in one and not the other is k when k < k', else l, and
    it lies in the first, which therefore sorts first.  The runs of several bad pairs
    are merged, the duplicates (quadruples through two bad pairs) dropped.
    When even the fewest bad pairs put more than 1/_SPARSE_SHARE of the
    C(n,4) quadruples in play (every tried base has a perturbed entry, or
    the matrix is far from rank 2), all quadruples are tested instead, in
    lexicographic order.  _screen is as for check_triangle.
    """
    n = s.n
    if n < 4:
        return StageCheck(())
    limit = comb(n, 4) // (_SPARSE_SHARE * comb(n - 2, 2))
    rows, bad = _screen_of(s, system) if _screen is None else _screen
    if bad is None or len(bad) > limit:
        bad = _fewest_bad_pairs(rows, n, limit)
    if bad is None:
        tails = [[(k, range(k + 1, n)) for k in range(j + 1, n)] for j in range(n)]
        groups = ((i, j, tails[j]) for i in range(n) for j in range(i + 1, n))
    else:
        groups = ((p, q, _pairs_off(n, p, q)) for p, q in bad)
    quads = _nonzero_pfaffians(rows, groups)
    if bad is not None and len(bad) > 1:
        # dict.fromkeys keeps each run in order, so the sort merges len(bad) runs
        quads = sorted(dict.fromkeys(quads))
    return StageCheck(_records(FailedPluecker, quads))


# disjoint base pairs tried for the bad-pair screen, 0-based
_BASE_PAIRS = ((0, 1), (2, 3), (4, 5))
# The Pluecker screen tests at most |B|*C(n-2,2) <= C(n,4)/_SPARSE_SHARE
# quadruples through the |B| bad pairs, plus at most three bad-pair scans of
# C(n-2,2) for the bases when no system gives B; the triangle screen tests
# at most |B|*(n-2) <= C(n,3)/_SPARSE_SHARE triples.  The Pluecker cap,
# |B| <= n(n-1)/(12*_SPARSE_SHARE), is half the triangle's.  Both sort only
# the failures, and only when |B| > 1.


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


def _pairs_off(n: int, p: int, q: int) -> list:
    """(k, ls) for each k off {p, q}: the candidates of _nonzero_pfaffians
    for every pair k < l off {p, q}, in increasing (k, l)."""
    rest = _off(n, p, q)
    return [(k, rest[t + 1:]) for t, k in enumerate(rest)]


def _fewest_bad_pairs(rows, n: int, limit: int) -> Optional[list]:
    """The bad pairs (k, l), k < l, of the base pair in _BASE_PAIRS with
    the fewest, or None when every base has a zero entry or more than
    limit bad pairs."""
    best = None
    for a, b in _BASE_PAIRS:
        if b >= n or not rows[a][b]:
            continue
        cap = limit if best is None else len(best) - 1
        # the scan stops after cap + 1 bad pairs; each failure is
        # {a, b, k, l}, 1-based and increasing, and (k, l) is the bad pair
        quads = _nonzero_pfaffians(rows, [(a, b, _pairs_off(n, a, b))])
        bad = [
            tuple(x - 1 for x in quad if x != a + 1 and x != b + 1)
            for quad in islice(quads, cap + 1)
        ]
        if len(bad) <= cap:
            best = bad
            if len(bad) <= 1:  # a failing relation leaves every base one
                break
    return best


# ---------------------------------------------------------------------------
# toz
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrimeTozEntry:
    prime: int
    nu: int  # valuation of g_123
    valuations: dict  # (i,j) -> valuation of m_ij
    contributions: tuple  # Fractions, one per column j = 2..n
    total: Fraction


@dataclass(frozen=True)
class TozReport:
    base_gcd: int
    per_prime: tuple  # tuple[PrimeTozEntry, ...], one per prime of base_gcd
    checked_primes: tuple  # ((p, total) for primes p < n)

    def total_for(self, p: int) -> Fraction:
        for entry in self.per_prime:
            if entry.prime == p:
                return entry.total
        return Fraction(0)


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
    vals = {
        (i, j): valuation(get(s, i, j), p)
        for j in range(2, s.n + 1)
        for i in range(1, j)
    }
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


def check_circledast(s: Scheme):
    """Remaining-allowed-kappa condition for every prime below n.

    Returns None on pass, else FailedToz(p, total) for the first prime
    whose kappa residues are all forbidden; the reported total is the
    per-column toz value.  For primes not dividing g_123 the condition is
    vacuous.  Meaningful once the triangle and Pluecker conditions hold,
    which is the order decide_torus uses.
    """
    if s.n <= 2:
        return None
    failures = _circledast_failures(s, kappa_constraints(s))
    return failures[0] if failures else None


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


@dataclass(frozen=True)
class Verdict:
    realizable: bool
    reasons: tuple  # tuple[Reason, ...]; empty iff realizable
    witness: Optional[tuple]  # CurveSystem on the original indexing
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
       of the first failing stage is listed.  When step 2 built a system
       of primitive vectors that misses only some determinants, every
       failing triple and quadruple contains a missed pair, and each
       check tests only those while they are few (check_triangle); else
       they scan as described there.

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

    The triangle and Pluecker checks run in turn, each looked up in this
    module at call time and given one dense copy of r and missed: every
    pair whose determinant the primitive system of construct_witness
    misses, listed by the same pass that checked the system, or None when
    no such system was built.  Each check lists only the failures through
    those pairs while they are within its own cap.  The first check that
    fails gives every reason, moved to the original curve indices by
    _relabel.  The kappa stage comes last.
    """
    r = red.reduced
    screen = (dense_rows(r), missed)
    for check in (check_triangle, check_pluecker_full):
        failures = check(r, _screen=screen).failures
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
