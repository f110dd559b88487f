"""The dense and certificate-first paths against the references in
reference.py: one-pass zero reduction, the dense triangle and Pluecker
checks, verify_system, the kappa residue scan and witness, and
decide_torus with its witness tried first."""

import random
from fractions import Fraction
from itertools import combinations, islice
from math import comb, gcd

import pytest

import bench_series
import reference
from conftest import (
    count_pluecker_tests,
    dets,
    random_nonzero_scheme,
    random_vector_scheme,
)
from toruscurves import (
    ConstraintViolation,
    FailedPluecker,
    FailedToz,
    FailedTriangle,
    Scheme,
    UnresolvableZero,
    check_pluecker_full,
    check_triangle,
    construct_witness,
    curve,
    decide_torus,
    factorize,
    forbidden_count,
    kappa_constraints,
    new_scheme,
    reduce_zeros,
    solve_xy,
    toz_report,
    verify_system,
)
from toruscurves.scheme import EMPTY_CURVE, Unresolvable, _pos, get
from toruscurves.solver import canonical_kappa


def _zero_heavy_scheme(rng: random.Random, n: int) -> Scheme:
    """A vector scheme drawn from a few classes, with repeated, reversed
    and Empty curves; sometimes one entry is perturbed so that a zero
    becomes unresolvable or a duplicate breaks."""
    base = []
    while len(base) < rng.randint(1, 4):
        p, q = rng.randint(-4, 4), rng.randint(-4, 4)
        if gcd(p, q) == 1:
            base.append((p, q))
    vecs = []
    for _ in range(n):
        if rng.random() < 0.15:
            vecs.append(None)
        else:
            p, q = rng.choice(base)
            vecs.append((p, q) if rng.random() < 0.5 else (-p, -q))
    entries = dets(vecs)
    if entries and rng.random() < 0.3:
        entries[rng.randrange(len(entries))] += rng.choice((-1, 1, 2))
    return new_scheme(n, entries)


def _pluecker_refuted(rng: random.Random, n: int) -> Scheme:
    """Distinct classes with the lcm L of all entries added to m_{n-1,n}:
    every gcd is kept and exactly the quadruples (i, j, n-1, n) fail."""
    while True:
        s = random_vector_scheme(rng, n, distinct=True)
        if 0 in s.entries:
            continue
        lcm = 1
        for e in s.entries:
            lcm = lcm * abs(e) // gcd(lcm, e)
        entries = list(s.entries)
        entries[-1] += lcm
        if entries[-1] != 0:
            return new_scheme(n, entries)


def test_reduce_zeros_matches_reference(rng):
    seen = set()
    for _ in range(1500):
        n = rng.randint(1, 12)
        if rng.random() < 0.6:
            s = _zero_heavy_scheme(rng, n)
        else:
            k = n * (n - 1) // 2
            s = Scheme(n, tuple(rng.choice([-2, -1, 0, 0, 1, 2]) for _ in range(k)))
        got = reduce_zeros(s)
        assert got == reference.reduce_zeros(s)
        if isinstance(got, Unresolvable):
            seen.add("unresolvable")
        seen.update(step.reason + str(step.sign) for step in got.steps)
    assert seen == {"unresolvable", "duplicate_of1", "duplicate_of-1", "emptyNone"}


def _duplicate_heavy_scheme(rng: random.Random, n: int) -> Scheme:
    """n curves over n // 4 classes, each in a random direction, one of
    them Empty; sometimes one entry is perturbed."""
    base = []
    while len(base) < n // 4:
        p, q = rng.randint(-20, 20), rng.randint(-20, 20)
        if gcd(p, q) == 1 and (p, q) not in base and (-p, -q) not in base:
            base.append((p, q))
    vecs = [base[i % len(base)] for i in range(n - 1)]
    rng.shuffle(vecs)
    vecs = [(p, q) if rng.random() < 0.5 else (-p, -q) for p, q in vecs]
    vecs.insert(rng.randrange(n), None)
    entries = dets(vecs)
    if rng.random() < 0.3:
        entries[rng.randrange(len(entries))] += rng.choice((-1, 1, 2))
    return new_scheme(n, entries)


def test_reduce_zeros_matches_reference_on_duplicate_heavy_schemes(rng):
    seen = set()
    for n in (20, 27, 33, 40, 44, 52, 60, 60):
        s = _duplicate_heavy_scheme(rng, n)
        got = reduce_zeros(s)
        assert got == reference.reduce_zeros(s)
        if isinstance(got, Unresolvable):
            seen.add("unresolvable")
        seen.update(step.reason + str(step.sign) for step in got.steps)
    assert {"duplicate_of1", "duplicate_of-1", "emptyNone"} <= seen
    # the duplicates series of tools/bench_series.py at small n: realizable,
    # with the reference's reduction and witness
    for n in (12, 20, 28, 40):
        s = new_scheme(n, bench_series.duplicate_entries(n))
        assert reduce_zeros(s) == reference.reduce_zeros(s), n
        got, want = decide_torus(s), reference.decide_torus(s)
        assert got.realizable and want.realizable, n
        assert bench_series.witness_of(got) == bench_series.witness_of(want), n


def _mostly_zero_scheme(rng: random.Random, n: int) -> Scheme:
    """n curves whose entries vanish off the rows of one to three curves,
    with some rows then copied onto others (possibly negated) and some
    made Empty: most zero pairs stay unresolved."""
    rows = [[0] * n for _ in range(n)]
    for c in rng.sample(range(n), rng.randint(1, 3)):
        for k in range(n):
            if k != c:
                rows[c][k] = rng.choice((-1, 1)) * rng.randint(1, 9)
                rows[k][c] = -rows[c][k]
    for _ in range(rng.randint(0, 3)):
        a, b = rng.sample(range(n), 2)
        sign = rng.choice((-1, 1))
        for k in range(n):
            if k != a and k != b:
                rows[b][k] = sign * rows[a][k]
                rows[k][b] = -rows[b][k]
        rows[a][b] = rows[b][a] = 0
    for e in rng.sample(range(n), rng.randint(0, 2)):
        for k in range(n):
            rows[e][k] = rows[k][e] = 0
    return new_scheme(n, [rows[i][j] for j in range(n) for i in range(j)])


def test_reduce_zeros_matches_reference_on_mostly_zero_schemes(rng):
    seen = set()
    for n in range(5, 41):
        for _ in range(3):
            s = _mostly_zero_scheme(rng, n)
            got = reduce_zeros(s)
            assert got == reference.reduce_zeros(s)
            if isinstance(got, Unresolvable):
                seen.add("unresolvable")
            seen.update(step.reason + str(step.sign) for step in got.steps)
    assert {"unresolvable", "duplicate_of1", "duplicate_of-1", "emptyNone"} <= seen
    # the mostly-zero series of tools/bench_series.py at small n
    # (m_{i,n} = i, all else 0): unresolvable, with the reference's
    # reduction and reasons
    for n in (12, 20, 28, 40):
        s = new_scheme(n, bench_series.mostly_zero_entries(n))
        got = reduce_zeros(s)
        assert isinstance(got, Unresolvable), n
        assert got == reference.reduce_zeros(s), n
        assert decide_torus(s).reasons == reference.decide_torus(s).reasons, n


def test_dense_checks_match_reference(rng):
    for _ in range(300):
        n = rng.randint(3, 9)
        if rng.random() < 0.5:
            s = random_nonzero_scheme(rng, n)
        else:
            s = random_vector_scheme(rng, n, distinct=True)
            if 0 in s.entries:
                continue
            if rng.random() < 0.5:
                entries = list(s.entries)
                entries[rng.randrange(len(entries))] *= rng.choice((2, 3, -1))
                s = new_scheme(n, entries)
        assert check_triangle(s) == reference.check_triangle(s)
        assert check_pluecker_full(s) == reference.check_pluecker_full(s)


def _perturbed(s: Scheme, pairs, negate: bool = False) -> Scheme:
    """s with each m_ij, (i, j) in pairs, negated or shifted by the lcm of
    all entries; either way every pairwise gcd is kept."""
    entries = list(s.entries)
    lcm = 1
    for e in entries:
        if e:
            lcm = lcm * abs(e) // gcd(lcm, e)
    for i, j in pairs:
        t = _pos(i, j)
        entries[t] = -entries[t] if negate else entries[t] + lcm
    return new_scheme(s.n, entries)


def test_pluecker_screen_matches_reference(rng):
    # perturbations in the rows of the base pairs the screen tries, in
    # every one of them at once, two negated entries, and dense schemes
    for n in [*range(4, 13), 16, 20, 24]:
        for _ in range(4 if n <= 12 else 2):
            s = random_vector_scheme(rng, n, qmax=9, distinct=True)
            j = rng.randint(3, n)
            shapes = [[(1, 2)], [(1, 3)], [(1, j)], [(2, j)], [(n - 1, n)],
                      [(n - 2, n), (n - 1, n)]]
            if n >= 6:
                shapes.append([(1, 2), (3, 4), (5, 6)])
            schemes = [_perturbed(s, pairs) for pairs in shapes]
            two = rng.sample([(i, k) for k in range(2, n + 1) for i in range(1, k)], 2)
            schemes.append(_perturbed(s, two, negate=True))
            schemes.append(random_nonzero_scheme(rng, n))
            for t in schemes:
                got = check_pluecker_full(t)
                assert got == reference.check_pluecker_full(t)
                assert got


def _with_first_duplicated(n: int, entries: list) -> list:
    """The entries of n + 1 curves, curve n + 1 a copy of curve 1:
    m_{1,n+1} = 0 and m_{i,n+1} = m_{i,1} = -m_{1i}."""
    return entries + [0] + [-entries[_pos(1, i)] for i in range(2, n + 1)]


@pytest.mark.parametrize("n,shape", [
    (n, shape) for n, shape in bench_series.shape_points() if n <= 40])
def test_series_refutations_match_reference(n, shape):
    # the refutation points of tools/bench_series.py: both screens and the
    # decision's reasons against the full scans of the reference
    s = new_scheme(n, bench_series.shape_entries(n, shape))
    got = decide_torus(s).reasons
    assert got and got == reference.decide_torus(s).reasons
    assert check_triangle(s) == reference.check_triangle(s)
    assert check_pluecker_full(s) == reference.check_pluecker_full(s)
    if shape == "last_pair":
        # zero reduction drops the copy, and the reasons are moved back to
        # the original curve indices
        s = new_scheme(n + 1, _with_first_duplicated(n, list(s.entries)))
        got = decide_torus(s)
        assert len(got.reduction.steps) == 1
        assert got.reasons and got.reasons == reference.decide_torus(s).reasons


def test_pluecker_screen_is_output_sensitive(monkeypatch):
    calls = count_pluecker_tests(monkeypatch)
    n = 40
    s = random_vector_scheme(random.Random(n), n, qmax=30, distinct=True)
    # one bad pair for the first clean base: C(n-2, 2) failing quadruples,
    # found with at most three bad-pair scans and C(n-2, 2) tests
    for pairs in ([(n - 1, n)], [(1, 2)], [(1, 7)], [(2, 7)], [(5, 6)]):
        calls.clear()
        t = _perturbed(s, pairs)
        got = check_pluecker_full(t)
        assert got == reference.check_pluecker_full(t)
        assert len(got) == comb(n - 2, 2)
        assert sum(c for _, c in calls) <= 4 * comb(n - 2, 2)
    # two bad pairs sharing curve n: the quadruples through both, those
    # holding n - 2, n - 1 and n, are found twice and listed once; three
    # base scans and two bad-pair scans
    calls.clear()
    t = _perturbed(s, [(n - 2, n), (n - 1, n)])
    got = check_pluecker_full(t)
    assert got == reference.check_pluecker_full(t)
    assert len(got) == 2 * comb(n - 2, 2) - (n - 3)
    assert sum(c for _, c in calls) <= 5 * comb(n - 2, 2)
    # every tried base pair dirty: the candidates are all quadruples
    calls.clear()
    t = _perturbed(s, [(1, 2), (3, 4), (5, 6)])
    assert check_pluecker_full(t) == reference.check_pluecker_full(t)
    assert calls[-1][1] == comb(n, 4)


def test_a_base_pair_beats_missed_pairs_within_the_cap(monkeypatch):
    # m_1n + L leaves the witness attempt the n - 2 pairs of column n,
    # within the Pluecker cap of 207 at n = 200, but base pair (3, 4) has
    # the one bad pair (1, n): two probes and one scan of C(n - 2, 2)
    # tests each, where the missed pairs would test n - 2 times as many
    n = 200
    s = _perturbed(random_vector_scheme(random.Random(n), n, qmax=30,
                                        distinct=True), [(1, n)])
    with pytest.raises(ConstraintViolation) as exc:
        construct_witness(s, canonical_kappa(kappa_constraints(s)))
    assert len(exc.value.missed) == n - 2
    assert n - 2 <= comb(n, 4) // (16 * comb(n - 2, 2))
    calls = count_pluecker_tests(monkeypatch)
    want = tuple(FailedPluecker(1, k, l, n)
                 for k, l in combinations(range(2, n), 2))
    assert len(want) == 19503
    assert decide_torus(s).reasons == want
    assert sum(c for _, c in calls) <= 4 * comb(n - 2, 2)
    assert calls[-1][0] == [(0, n - 1)]


def test_base_pairs_screen_a_scheme_without_a_witness(monkeypatch):
    # every entry doubled: no base triple admits a kappa at p = 2, so no
    # witness lists missed pairs, and the Pluecker stage takes the one bad
    # pair (n - 1, n) of base pair (1, 2)
    n = 40
    doubled = random_vector_scheme(random.Random(n), n, qmax=30, distinct=True)
    s = _perturbed(new_scheme(n, [2 * e for e in doubled.entries]),
                   [(n - 1, n)])
    assert not kappa_constraints(s).feasible()
    calls = count_pluecker_tests(monkeypatch)
    v = decide_torus(s)
    assert len(v.reasons) == comb(n - 2, 2) == 703
    assert v.reasons == tuple(FailedPluecker(k, l, n - 1, n)
                              for k, l in combinations(range(1, n - 1), 2))
    assert calls[0][0] == [(0, 1)] and calls[-1][0] == [(n - 2, n - 1)]
    assert sum(c for _, c in calls) < comb(n, 4) // 16


def test_toz_total_matches_report(rng):
    seen = 0
    for t in range(400):
        n = rng.randint(3, 9)
        g = rng.choice([2, 3, 4, 6, 8, 9, 12, 30])
        if t % 2:
            s = new_scheme(n, [g * e for e in random_vector_scheme(rng, n).entries])
        else:
            s = _kappa_scheme(rng, n)
        v = decide_torus(s)
        for f in v.reasons:
            if isinstance(f, FailedToz):
                report = toz_report(v.reduction.reduced)
                totals = {e.prime: e.total for e in report.per_prime}
                assert f.total == totals[f.prime]
                seen += 1
    assert seen >= 30


def test_verify_system_matches_reference(rng):
    for _ in range(300):
        n = rng.randint(1, 8)
        vecs = []
        while len(vecs) < n:
            p, q = rng.randint(-5, 5), rng.randint(-5, 5)
            if rng.random() < 0.15:
                vecs.append(None)
            elif (p, q) != (0, 0) and (gcd(p, q) == 1 or rng.random() < 0.1):
                vecs.append((p, q))
        entries = dets(vecs)
        if entries and rng.random() < 0.5:
            entries[rng.randrange(len(entries))] += rng.choice((-1, 1))
        s = new_scheme(n, entries)
        system = tuple(EMPTY_CURVE if v is None else curve(*v) for v in vecs)
        assert verify_system(s, system) == reference.verify_system(s, system)


def test_decide_matches_stage_order(rng):
    kinds = set()
    for t in range(900):
        n = rng.randint(1, 10)
        pick = t % 5
        if pick == 0:
            s = _zero_heavy_scheme(rng, n)
        elif pick == 1:
            s = random_nonzero_scheme(rng, max(n, 3))
        elif pick == 2:
            s = random_vector_scheme(rng, n)
        elif pick == 3:
            g = rng.choice([2, 3, 4, 6, 9, 30])
            s = new_scheme(n, [g * e for e in random_vector_scheme(rng, n).entries])
        else:
            s = _pluecker_refuted(rng, max(n, 4))
        v = decide_torus(s)
        assert v == reference.decide_torus(s)
        kinds.add(type(v.reasons[0]) if v.reasons else True)
    assert kinds == {True, FailedTriangle, FailedPluecker, FailedToz, UnresolvableZero}


def test_realizable_without_triangle_or_pluecker(monkeypatch):
    from toruscurves import conditions

    def refuse(s):
        raise AssertionError("a realizable scheme needs no condition check")

    monkeypatch.setattr(conditions, "check_triangle", refuse)
    monkeypatch.setattr(conditions, "check_pluecker_full", refuse)
    s = random_vector_scheme(random.Random(28), 28, qmax=20, distinct=True)
    assert 0 not in s.entries
    v = decide_torus(s)
    assert v.realizable and verify_system(s, v.witness)


def test_factorize_once_per_decision(monkeypatch):
    from toruscurves import conditions, solver

    calls = []
    factorize = solver.factorize

    def counted(m):
        calls.append(m)
        return factorize(m)

    monkeypatch.setattr(solver, "factorize", counted)
    monkeypatch.setattr(conditions, "factorize", counted)
    # vectors (1,0), (1,30), (7,30), (11,60): g_123 = 30
    v = decide_torus(new_scheme(4, [30, 30, -180, 60, -270, 90]))
    assert v.realizable
    assert [(pc.prime, pc.modulus) for pc in v.constraints.per_prime] == [
        (2, 2), (3, 3), (5, 5)
    ]
    assert calls == [30]

    # a FailedToz refutation reads its primes off the same scan
    calls.clear()
    v = decide_torus(new_scheme(3, [6, 10, 14]))
    assert v.reasons == (FailedToz(2, Fraction(2)),)
    assert v.constraints.per_prime[0].count == 0
    assert calls == [2]


def test_decide_without_toz_report(monkeypatch, rng):
    from toruscurves import conditions

    def refuse(s):
        raise AssertionError("the decision needs no toz report")

    monkeypatch.setattr(conditions, "toz_report", refuse)
    realizable = 0
    for t in range(300):
        n = rng.randint(3, 9)
        if t % 3 == 0:
            s = _zero_heavy_scheme(rng, n)
        elif t % 3 == 1:
            s = random_vector_scheme(rng, n, distinct=True)
        else:
            g = rng.choice([2, 3, 4, 6, 9, 30])
            s = new_scheme(n, [g * e for e in random_vector_scheme(rng, n).entries])
        v = decide_torus(s)
        if v.realizable:
            assert verify_system(s, v.witness)
            realizable += 1
    assert realizable >= 150
    v = decide_torus(new_scheme(3, [6, 10, 14]))
    assert v.reasons == (FailedToz(2, Fraction(2)),)


def test_construct_witness_rejects_wrong_determinant():
    # (1,0), (0,1), (1,1), (1,2), (2,1) with m_45 off by one: every r_j is
    # integral and primitive, but det(gamma_4, gamma_5) != m_45
    entries = dets([(1, 0), (0, 1), (1, 1), (1, 2), (2, 1)])
    entries[-1] += 1
    s = new_scheme(5, entries)
    with pytest.raises(ConstraintViolation):
        construct_witness(s, 0)


def _kappa_scheme(rng: random.Random, n: int) -> Scheme:
    """A vector scheme (1,0), (r_j, g*q_j), ... with g_123 divisible by g.

    Half of them get one entry in a column j >= 4 scaled by a prime of g
    or shifted by g, so the base triple still passes while a later column
    may cut kappa residues or fail outright."""
    g = rng.choice([2, 3, 4, 6, 8, 9, 10, 12, 15, 25, 30])
    vecs = [(1, 0)]
    while len(vecs) < n:
        r, q = rng.randint(-9, 9), g * rng.choice([-3, -2, -1, 1, 2, 3])
        if gcd(r, q) == 1:
            vecs.append((r, q))
    entries = dets(vecs)
    if n >= 4 and rng.random() < 0.5:
        t = rng.randrange(3, len(entries))
        if rng.random() < 0.5:
            entries[t] *= factorize(g).pairs[0][0]
        else:
            entries[t] += rng.choice((-g, g))
    return new_scheme(n, entries)


def _line_scheme(base, cols) -> Scheme:
    """The scheme with base triple base whose kappa line continues with
    the pairs (A_j, B_j) in cols for j = 4, 5, ...; m_ij = 1 for i >= 4.

    m_2j = -A*m'_12 and m_3j = -A*m'_13 give y*m_2j - x*m_3j = A."""
    w = solve_xy(new_scheme(3, list(base)))
    entries = list(base)
    for j, (a, b) in enumerate(cols, start=4):
        entries += [b, -a * w.m12p, -a * w.m13p] + [1] * (j - 4)
    return new_scheme(3 + len(cols), entries)


# (base triple, kappa line columns j >= 4, the admitted residues mod p^nu
# of g_123 = p^nu, or their first few and their number)
_KAPPA_LINES = [
    # 2^9: the columns exclude 1 mod 4, 3 mod 8 and 7 mod 16 inside
    # their classes 1 mod 2, 3 mod 4 and 7 mod 8, so every residue below
    # 15 is out and the least admitted kappa exceeds n
    ((512, 512, 1024), [(768, 256), (640, 128), (576, 64)],
     (15, 31, 47), 32),
    # 3^4: the class 5 mod 9 with 23 mod 27 excluded
    ((81, 81, 81), [(189, 27), (36, 9)], (5, 14, 32, 41, 59, 68), 6),
    # the same with 14 mod 27 excluded too: one class mod 27 is left
    ((81, 81, 81), [(189, 27), (36, 9), (117, 9)], (5, 32, 59), 3),
    # the same with 2 mod 3 excluded, which holds the exclusions 2 mod 9
    # and 23 mod 27 and every admitted residue
    ((81, 81, 81), [(189, 27), (36, 9), (81, 81)], (), 0),
]


def _check_kappa_against_scan(s):
    """kappa_constraints(s) against the residue scan of the reference;
    returns the result."""
    got = kappa_constraints(s)
    assert got == reference.kappa_constraints(s)
    w = solve_xy(s)
    for pc in got.per_prime:
        p, nu = pc.prime, pc.nu
        scanned = reference.project(reference.scan_lifted(s, w, p, nu), p, nu)
        assert pc.count == len(scanned)
        assert list(islice(pc.allowed, 20)) == list(scanned[:20])
        if scanned:
            assert pc.allowed[-1] == scanned[-1]
    return got


def test_kappa_scan_matches_reference(rng):
    for base, cols, first, count in _KAPPA_LINES:
        s = _line_scheme(base, cols)
        (pc,) = _check_kappa_against_scan(s).per_prime
        assert pc.count == count and tuple(pc.allowed)[:len(first)] == first
    checked = cut = forbidden = 0
    for t in range(800):
        n = rng.randint(3, 7)
        if t % 4 == 0:
            s = random_nonzero_scheme(rng, n, hi=10)
        else:
            s = _kappa_scheme(rng, n)
        m12, m13, m23 = s.entries[:3]
        if 0 in s.entries or not gcd(m12, m13) == gcd(m12, m23) == gcd(m13, m23):
            continue
        got = _check_kappa_against_scan(s)
        checked += 1
        base = reference.kappa_constraints(new_scheme(3, s.entries[:3]))
        if got.per_prime != base.per_prime:
            cut += 1  # a column j >= 4 removed residues the triple allows
        if n == 3 and not got.unconstrained:
            for g_l, _ in factorize(solve_xy(s).g123).pairs:
                assert forbidden_count(s, g_l) == reference.forbidden_count(s, g_l)
                forbidden += 1
    assert checked >= 400 and cut >= 50 and forbidden >= 30
    # the kappa series of tools/bench_series.py, (2,3,5)*g, up to
    # g = 10^4
    for g in bench_series.KAPPA_POINTS:
        if g <= 10**4:
            s = new_scheme(3, bench_series.kappa_entries(g))
            assert _check_kappa_against_scan(s).per_prime, g


def test_construct_witness_matches_reference(rng):
    built = refused = 0
    for t in range(300):
        n = rng.randint(3, 7)
        s = _kappa_scheme(rng, n)
        if 0 in s.entries:
            continue
        g = solve_xy(s).g123
        for kappa in rng.sample(range(-2 * g, 3 * g), min(4, 5 * g)):
            rs = reference.witness_r(s, kappa)
            cols = [get(s, 1, j) for j in range(2, n + 1)]
            admitted = None not in rs and all(
                gcd(r, m) == 1 for r, m in zip(rs, cols)
            )
            system = (curve(1, 0),) + tuple(
                curve(r, m) for r, m in zip(rs, cols)
            )
            if admitted and reference.verify_system(s, system):
                w = construct_witness(s, kappa)
                assert w.r == rs and w.system == system and w.kappa == kappa
                built += 1
            else:
                with pytest.raises(ConstraintViolation):
                    construct_witness(s, kappa)
                refused += 1
    assert built >= 100 and refused >= 100
