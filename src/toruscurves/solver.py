"""Witness construction for realizable schemes.

Every solution with gamma_1 = (1,0) has gamma_j = (r_j, m_1j), and all of
them are indexed by one integer parameter kappa:

    g_123 * r_j = D_j = A_j + kappa*B_j,  A_j = y*m_2j - x*m_3j,  B_j = m_1j

for j >= 2, where x*m'_13 - y*m'_12 = 1 (m'_ij = m_ij / g_123).  With
m_22 = m_33 = 0 and m_32 = -m_23 this gives r_2 = x*m'_23 + kappa*m'_12
and r_3 = y*m'_23 + kappa*m'_13.  _kappa_line computes the pairs
(A_j, B_j) once per call; kappa_constraints, construct_witness and
forbidden_count all start from them.  A kappa is admitted exactly when
every r_j is an integer and gcd(r_j, m_1j) = 1.  At a prime
p^nu || g_123 that means p^nu | D_j for every j, and p^(nu+1) does not
divide D_j when p | B_j (for j = 2, 3 this says r_2, r_3 are units mod
p).  Both tests depend on kappa mod p^nu only: the first is a test mod
p^nu, and when p | B_j, shifting kappa by p^nu moves D_j by a multiple
of p^(nu+1).

Each test is linear in kappa, so it holds on a p-adic ball, a class mod a
power of p.  With t = v_p(B_j), p^e | D_j holds on one class mod p^(e-t)
when t < e (and p^t | A_j; otherwise nowhere), and for every kappa or
none when t >= e.  A unit column, p not dividing B_j, is the ball of
t = 0, one class mod p^e, and has no exclusion test.  Two p-adic balls are
nested or disjoint, so the inclusion tests meet in one ball r mod m (or
nothing).  A column's exclusion ball is at most p times finer than its
inclusion ball, which holds r mod m, so each exclusion test removes all of
r mod m, nothing, or one of its p sub-balls mod p*m.  kappa_constraints
stores that closed form per prime (PrimeConstraint), with an exact count
and the residues in increasing order on demand, in O(n * nu) steps and
without a scan.  The admitted classes of all primes combine by CRT into
classes mod g_123.
Shifting kappa by g_123 is the stabilizer of (1,0), so these classes are
exactly the orbits of normalized witnesses: _orbit_kappas lists them,
by the mixed-radix digits of the orbit index, and orbit 0 is the
canonical kappa.
"""

from __future__ import annotations

from itertools import islice
from math import gcd, prod
from typing import NamedTuple, Optional

from .errors import (
    ConstraintViolation,
    DomainError,
    InvalidShape,
    PreconditionViolated,
    _integer,
    type_strict,
)
from .intarith import (
    ResidueClass,
    _crt_basis,
    factorize,
    is_probable_prime,
    valuation,
    xgcd,
)
from .scheme import Scheme, _pos, columns, curve, get, require_nonzero


@type_strict
class XYWitness(NamedTuple):
    """Bezout data for the base triple: x*m13p - y*m12p = 1."""

    x: int
    y: int
    g123: int
    m12p: int
    m13p: int
    m23p: int


@type_strict
class PrimeConstraint(NamedTuple):
    """The kappa residues mod p^nu admitted at one prime p | g_123.

    They are the residues of one p-adic class, ball (a ResidueClass mod a
    power of p), outside the classes in excluded, which are some of its p
    classes mod p * ball.modulus, by residue; fewer than p - 1 of them, so
    ball is the smallest class holding every admitted residue.  ball is
    None when none is admitted.  count is their exact number; allowed
    lists them lazily.
    """

    prime: int
    nu: int  # valuation of g_123 at this prime
    modulus: int  # prime ** nu; every test on kappa is periodic mod it
    ball: Optional[ResidueClass]
    excluded: tuple  # tuple[ResidueClass, ...]
    count: int

    @property
    def allowed(self) -> "KappaResidues":
        """The admitted residues in [0, modulus), increasing."""
        return KappaResidues(self)


class KappaResidues:
    """The admitted residues of a PrimeConstraint as a lazy sequence.

    With the ball r mod m, the residues are r + m*k for 0 <= k < p^nu/m
    whose digit k mod p is not excluded, so member i costs
    O(len(excluded)) whatever p^nu is; iteration goes through it.  len()
    overflows past sys.maxsize; PrimeConstraint.count does not.
    """

    __slots__ = ("_pc",)

    def __init__(self, pc: PrimeConstraint):
        self._pc = pc

    def __len__(self) -> int:
        return self._pc.count

    def __bool__(self) -> bool:
        return self._pc.count > 0

    def __contains__(self, k) -> bool:
        pc = self._pc
        return (
            pc.ball is not None
            and 0 <= k < pc.modulus
            and k % pc.ball.modulus == pc.ball.residue
            and all(k % e.modulus != e.residue for e in pc.excluded)
        )

    def __getitem__(self, i: int) -> int:
        pc = self._pc
        if i < 0:
            i += pc.count
        if not 0 <= i < pc.count:
            raise IndexError("kappa residue index out of range")
        r, m = pc.ball.residue, pc.ball.modulus
        # the (i mod per)-th digit not excluded, in block i // per
        per = pc.prime - len(pc.excluded)
        block, digit = divmod(i, per)
        for e in pc.excluded:
            if (e.residue - r) // m > digit:
                break
            digit += 1
        return r + m * (pc.prime * block + digit)


@type_strict
class KappaConstraintSet(NamedTuple):
    per_prime: tuple  # tuple[PrimeConstraint, ...]; empty iff g_123 = 1

    @property
    def unconstrained(self) -> bool:
        return not self.per_prime

    def feasible(self) -> bool:
        return all(pc.count for pc in self.per_prime)


@type_strict
class NormalizedWitness(NamedTuple):
    """A witness (1,0), (r_2, m_12), ..., (r_N, m_1N).

    kappa is the solution parameter; for 2-schemes, where no base triple
    exists, it is the representative r itself.
    """

    kappa: int
    r: tuple
    system: tuple


def _base_triple(s: Scheme) -> tuple[int, int, int, int]:
    a, b, c = get(s, 1, 2), get(s, 1, 3), get(s, 2, 3)
    g1, g2, g3 = gcd(a, b), gcd(a, c), gcd(b, c)
    if not g1 == g2 == g3:
        raise PreconditionViolated(
            f"triangle condition fails on (1,2,3): gcds {g1},{g2},{g3}"
        )
    return g1, a, b, c


def solve_xy(s: Scheme) -> XYWitness:
    """Fix a Bezout pair for the base triple of a scheme with n >= 3."""
    if s.n < 3:
        raise DomainError("solve_xy needs at least 3 curves")
    require_nonzero(s)
    g, a, b, c = _base_triple(s)
    m12p, m13p, m23p = a // g, b // g, c // g
    # g = gcd(m_12, m_13) by _base_triple, so m'_13 and m'_12 are coprime
    _, x, v = xgcd(m13p, m12p)
    y = -v
    if x * m13p - y * m12p != 1:
        raise AssertionError(f"internal fault: bad Bezout pair for {s}")
    return XYWitness(x, y, g, m12p, m13p, m23p)


def _kappa_line(s: Scheme, w: XYWitness) -> list:
    """The pairs (A_j, B_j) with D_j = A_j + kappa*B_j, for j = 2..n."""
    e, x, y = s.entries, w.x, w.y
    # j = 2, 3 through m_22 = m_33 = 0 and m_32 = -m_23
    line = [(x * e[2], e[0]), (y * e[2], e[1])]
    for j in range(4, s.n + 1):
        t = _pos(1, j)
        m1j, m2j, m3j = e[t:t + 3]  # the first three entries of column j
        line.append((y * m2j - x * m3j, m1j))
    return line


def _meet(a: int, b: int, t: int, p: int, e: int, m: int, r: int):
    """The class r mod m met with {kappa : p^e | a + kappa*b}, as
    (modulus, residue), or None when they are disjoint; m is a power of p
    and t = min(v_p(b), e).

    The second set is a class mod p^(e-t) (everything or nothing when
    t = e), and two classes mod powers of p are nested or disjoint.
    """
    mz = p ** (e - t)
    if mz <= m:
        return (m, r) if (a + r * b) % p**e == 0 else None
    pt = p**t
    if a % pt:
        return None
    c = -(a // pt) * pow(b // pt, -1, mz) % mz
    return (mz, c) if c % m == r else None


def _prime_constraint(line, p: int, nu: int) -> PrimeConstraint:
    """The admitted kappa classes mod p^nu in closed form: p^nu | D_j for
    every j, and p^(nu+1) does not divide D_j whenever p | B_j."""
    pe = p**nu
    m, r = 1, 0  # the inclusion tests so far hold exactly on r mod m
    cuts = []  # (A_j, B_j, min(v_p(B_j), nu + 1)) for p | B_j
    for a, b in line:
        # t = min(v_p(B_j), nu + 1); a unit column is the t = 0 ball, one
        # class mod p^nu, and has no exclusion test
        t, bt = 0, b
        while t <= nu and bt % p == 0:
            t, bt = t + 1, bt // p
        if t < nu:
            met = _meet(a, b, t, p, nu, m, r)
            if met is None:
                return _no_kappa(p, nu)
            m, r = met
        elif a % pe:
            return _no_kappa(p, nu)
        if t:
            cuts.append((a, b, t))
    # A column's exclusion class is at most p times finer than its
    # inclusion class, which holds r mod m; so it holds r mod m, misses
    # it, or is one of its p classes mod p*m.
    holes = set()
    for a, b, t in cuts:
        met = _meet(a, b, t, p, nu + 1, m, r)
        if met is not None:
            if met[0] == m:
                return _no_kappa(p, nu)
            holes.add(met[1])
    if not holes:
        return PrimeConstraint(p, nu, pe, ResidueClass(m, r), (), pe // m)
    if len(holes) == p:
        return _no_kappa(p, nu)
    if len(holes) == p - 1:  # what is left is the last class mod p*m
        r = next(r + m * d for d in range(p) if r + m * d not in holes)
        m *= p
        return PrimeConstraint(p, nu, pe, ResidueClass(m, r), (), pe // m)
    count = (pe // m) // p * (p - len(holes))
    excluded = tuple(ResidueClass(m * p, h) for h in sorted(holes))
    return PrimeConstraint(p, nu, pe, ResidueClass(m, r), excluded, count)


def _no_kappa(p: int, nu: int) -> PrimeConstraint:
    return PrimeConstraint(p, nu, p**nu, None, (), 0)


def kappa_constraints(s: Scheme) -> KappaConstraintSet:
    """Allowed kappa residues mod p^nu_p for each prime p | g_123.

    An empty allowed set for some prime certifies the scheme is not
    realizable; nonemptiness is guaranteed once the gcd, Pluecker and
    valuation conditions all hold.  Each prime's set is computed in closed
    form from the kappa line in O(n * nu) steps, whatever p^nu is.
    """
    w = solve_xy(s)
    if w.g123 == 1:
        return KappaConstraintSet(())
    line = _kappa_line(s, w)
    per = tuple(
        _prime_constraint(line, p, nu) for p, nu in factorize(w.g123).pairs
    )
    return KappaConstraintSet(per)


def _orbit_kappas(per_prime):
    """Lazily, the kappa of orbit i, in [0, g_123), for i = 0, 1, ...

    The digits of i in the mixed radix of the per-prime counts, the last
    prime's least significant, pick one allowed residue per prime
    (itertools.product order), and the CRT basis of the prime powers,
    computed once, combines them.  Orbit 0 takes the minimal allowed
    residue at every prime.  No constraints give 0, of the class 0 mod 1.
    """
    moduli = [pc.modulus for pc in per_prime]
    g123 = prod(moduli)
    digits = [(pc.count, pc.allowed, e)
              for pc, e in zip(per_prime, _crt_basis(moduli))][::-1]
    # range, not len(): the count can pass sys.maxsize
    for i in range(prod([pc.count for pc in per_prime])):
        kappa = 0
        for count, allowed, e in digits:
            i, k = divmod(i, count)
            kappa += allowed[k] * e
        yield kappa % g123


def canonical_kappa(cons: KappaConstraintSet) -> int:
    """The kappa of orbit 0: the smallest nonnegative kappa whose residue
    mod each p^nu is the minimal allowed one; it lies below g_123."""
    kappa = next(_orbit_kappas(cons.per_prime), None)
    if kappa is None:
        raise DomainError("no allowed kappa: scheme is not realizable")
    return kappa


def construct_witness(s: Scheme, kappa: int) -> NormalizedWitness:
    """Build and verify the normalized witness for kappa.

    kappa is admitted iff every r_j is integral and gcd(r_j, m_1j) = 1;
    otherwise ConstraintViolation is raised.  Once the triangle and
    Pluecker conditions hold this is exactly membership in the residue
    classes of kappa_constraints, without scanning them.  Without them the
    system built, of primitive vectors, can miss some determinant m_ij;
    that also raises ConstraintViolation, whose missed lists every pair
    that misses, so a returned witness always verifies and proves the
    scheme realizable.
    """
    if s.n < 3:
        raise DomainError("construct_witness needs at least 3 curves")
    w = solve_xy(s)
    rs, system = [], [curve(1, 0)]
    for j, (a, m1j) in enumerate(_kappa_line(s, w), start=2):
        r, rem = divmod(a + kappa * m1j, w.g123)
        if rem:
            raise ConstraintViolation(
                f"kappa={kappa} gives non-integral r_{j}"
            )
        if gcd(r, m1j) != 1:
            raise ConstraintViolation(
                f"kappa={kappa} gives r_{j} sharing a factor with m_1{j}"
            )
        rs.append(r)
        system.append(curve(r, m1j))
    # every vector is primitive: (1,0), and each (r_j, m_1j) by the gcd test
    missed = list(_mismatches(s, system))
    if missed:
        raise ConstraintViolation(
            f"kappa={kappa} gives a system whose determinants differ "
            f"from the scheme",
            missed,
        )
    return NormalizedWitness(kappa, tuple(rs), tuple(system))


def _pair_classes(m: int):
    """Yield the witnesses (1,0),(r,m) for r in [0,|m|) coprime to m, in
    increasing r, without listing the phi(|m|) of them first."""
    if m == 0:
        raise DomainError("m = 0 is handled by zero reduction, not here")
    for r in range(abs(m)):
        if gcd(r, m) == 1:
            yield NormalizedWitness(r, (r,), (curve(1, 0), curve(r, m)))


def solve_pair_orbits(m: int) -> list:
    """Orbit representatives (1,0),(r,m) for a single intersection number.

    There are phi(|m|) of them, one per r in [0,|m|) coprime to m; the
    convention 0 <= r < |m| covers negative m as well.
    """
    return list(_pair_classes(_integer(m, "m")))


def _orbits(s: Scheme, cons: Optional[KappaConstraintSet]):
    """Lazily, one normalized witness per orbit of a realizable zero-free
    scheme; for n >= 3 cons is its kappa_constraints, else unused."""
    if s.n == 1:
        yield NormalizedWitness(0, (), (curve(1, 0),))
    elif s.n == 2:
        yield from _pair_classes(get(s, 1, 2))
    else:
        for kappa in _orbit_kappas(cons.per_prime):
            yield construct_witness(s, kappa)


def enumerate_orbits(s: Scheme, limit: Optional[int] = None) -> list:
    """One normalized witness per allowed kappa class mod g_123.

    Orbits are classes of witnesses under the stabilizer of (1,0), which
    shifts every r_j by m_1j at once; only the first limit get a witness.
    Raises DomainError when the scheme is not realizable, and for a limit
    that is not an integer or is below 1.
    """
    if limit is not None and (limit := _integer(limit, "limit")) < 1:
        raise DomainError(f"orbit limit must be >= 1, got {limit}")
    cons = kappa_constraints(s) if s.n >= 3 else None
    if cons is not None and not cons.feasible():
        raise DomainError("scheme is not realizable on a torus")
    return list(islice(_orbits(s, cons), limit))


def forbidden_count(s: Scheme, g_l: int) -> int:
    """Number of forbidden kappa residues mod a prime g_l | g_123 (n = 3).

    Equals 1 when g_l divides m'_12 m'_13 m'_23 and 2 otherwise; 0 when
    g_123 = 1, where no prime constrains kappa at all.  Raises DomainError
    when g_l is not a prime.
    """
    if s.n != 3:
        raise DomainError("forbidden_count is defined for 3-schemes")
    if not is_probable_prime(g_l):
        raise DomainError(f"{g_l} is not a prime")
    w = solve_xy(s)
    if w.g123 == 1:
        return 0
    if w.g123 % g_l != 0:
        raise DomainError(f"{g_l} does not divide g_123 = {w.g123}")
    nu = valuation(w.g123, g_l)
    # for n = 3 both columns have v_p(B_j) >= nu, so the admitted set is
    # a union of classes mod g_l
    pc = _prime_constraint(_kappa_line(s, w), g_l, nu)
    return g_l - pc.count // g_l ** (nu - 1)


def verify_system(s: Scheme, system) -> bool:
    """True iff every vector is primitive and all pairwise determinants
    match the scheme (Empty curves contribute 0).

    construct_witness verifies its own systems with one _mismatches pass;
    the decision calls this only on a witness lifted through a zero
    reduction that removed curves, and on the witness of fewer than 3
    reduced curves.  The pass stops at the first missed determinant.
    """
    return next(_mismatches(s, system), None) is None and all(
        v.is_primitive() for v in system
    )


def _mismatches(s: Scheme, system):
    """Lazily, the pairs (i, j), 0-based, i < j, where det(v_i, v_j)
    differs from m_ij, in column order; an Empty curve counts as the zero
    vector.  InvalidShape is raised at the first step when the system's
    size is not s's."""
    if len(system) != s.n:
        raise InvalidShape(
            f"system has {len(system)} curves, scheme expects {s.n}"
        )
    vecs = [(0, 0) if v.is_empty else (v.p, v.q) for v in system]
    for j, col in enumerate(columns(s), start=1):  # j is 0-based
        pj, qj = vecs[j]
        for i, m in enumerate(col):
            p, q = vecs[i]
            if p * qj - pj * q != m:
                yield i, j
