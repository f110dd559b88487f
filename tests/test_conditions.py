import random
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, strategies as st

import reference
from toruscurves import (
    ConstraintViolation,
    FailedPluecker,
    FailedToz,
    FailedTriangle,
    PreconditionViolated,
    UnresolvableZero,
    check_circledast,
    check_pluecker_full,
    check_triangle,
    construct_witness,
    curve,
    decide_torus,
    kappa_constraints,
    new_scheme,
    oracle_realizable,
    permute,
    pluecker_mu,
    toz_report,
    verify_system,
)
from toruscurves.scheme import _pos, dense_rows, get
from toruscurves.solver import _mismatches, canonical_kappa
from conftest import (
    count_pluecker_tests,
    dets,
    random_nonzero_scheme,
    random_permutation,
    random_vector_scheme,
)

PENTA = new_scheme(4, [5, 15, 15, 15, 15, 3])


def test_check_triangle():
    assert check_triangle(new_scheme(3, [6, 10, 14])) == ()
    out = check_triangle(PENTA)
    assert type(out) is tuple and out[0] == FailedTriangle(1, 2, 3)
    assert out == reference.check_triangle(PENTA)
    assert check_triangle(new_scheme(3, [1, 1, 1])) == ()
    assert check_triangle(new_scheme(2, [4])) == ()
    with pytest.raises(PreconditionViolated):
        check_triangle(new_scheme(3, [1, 0, 1]))


def test_pluecker_mu():
    assert pluecker_mu(new_scheme(4, [1, 1, 1, 2, 1, -1]), 1, 2, 3, 4) == 0
    assert pluecker_mu(new_scheme(4, [1] * 6), 1, 2, 3, 4) == 1
    assert pluecker_mu(PENTA, 1, 2, 3, 4) == 15
    with pytest.raises(IndexError):
        pluecker_mu(PENTA, 2, 1, 3, 4)


def test_check_pluecker_full():
    assert check_pluecker_full(new_scheme(4, [1, 1, 1, 2, 1, -1])) == ()
    assert check_pluecker_full(new_scheme(3, [1, 1, 1])) == ()  # vacuous
    assert check_pluecker_full(PENTA) == (FailedPluecker(1, 2, 3, 4),)


def _five_term(s):
    """m_15*mu_1234 - m_14*mu_1235 + m_13*mu_1245 - m_12*mu_1345 of a
    5-scheme, through pluecker_mu: zero on every 5-scheme."""
    return (get(s, 1, 5) * pluecker_mu(s, 1, 2, 3, 4)
            - get(s, 1, 4) * pluecker_mu(s, 1, 2, 3, 5)
            + get(s, 1, 3) * pluecker_mu(s, 1, 2, 4, 5)
            - get(s, 1, 2) * pluecker_mu(s, 1, 3, 4, 5))


def test_pluecker_identity_worked_example():
    # row-order values m_12..m_45 = 1..10 (column-order storage below)
    s = new_scheme(5, [1, 2, 5, 3, 6, 8, 4, 7, 9, 10])
    assert pluecker_mu(s, 1, 2, 3, 4) == 11
    assert pluecker_mu(s, 1, 2, 3, 5) == 15
    assert pluecker_mu(s, 1, 2, 4, 5) == 13
    assert pluecker_mu(s, 1, 3, 4, 5) == 25
    assert _five_term(s) == 4 * 11 - 3 * 15 + 2 * 13 - 1 * 25 == 0
    with pytest.raises(IndexError):
        pluecker_mu(s, 1, 2, 4, 4)


@given(st.lists(st.integers(min_value=-99, max_value=99), min_size=10,
                max_size=10))
def test_pluecker_identity_is_identity(entries):
    s = new_scheme(5, entries)
    assert _five_term(s) == 0
    # the curves relabelled, so that the terms read m_23*mu_2415 - ...
    assert _five_term(permute(s, (2, 4, 1, 5, 3))) == 0


def test_toz_report_paper_fixtures():
    r = toz_report(new_scheme(4, [9, 9, 9, 6, 3, -3]))
    assert r.base_gcd == 9
    assert {e.prime: e.total for e in r.per_prime} == {3: Fraction(7, 3)}
    (entry,) = r.per_prime
    assert entry.contributions == (Fraction(1), Fraction(1), Fraction(1, 3))

    r = toz_report(new_scheme(4, [3, 3, 3, 6, 3, -3]))
    assert {e.prime: e.total for e in r.per_prime} == {3: 3}

    r = toz_report(new_scheme(4, [1, 1, 1, 2, 1, -1]))
    assert all(t == 0 for _, t in r.checked_primes)


def test_toz_contribution_bounds(rng):
    for _ in range(300):
        n = rng.choice([3, 4, 5, 6])
        s = random_nonzero_scheme(rng, n)
        if check_triangle(s):
            continue
        r = toz_report(s)
        for entry in r.per_prime:
            assert entry.contributions[0] == 1  # column 2
            for c in entry.contributions:
                assert c == 0 or 0 < c <= 1
            assert entry.total < n


def test_toz_preconditions():
    with pytest.raises(PreconditionViolated):
        toz_report(new_scheme(3, [2, 0, 2]))
    with pytest.raises(PreconditionViolated):
        toz_report(PENTA)  # base triple gcds differ


def test_check_circledast():
    out = check_circledast(new_scheme(3, [6, 10, 14]))
    assert out == (FailedToz(2, Fraction(2)),)
    assert check_circledast(new_scheme(4, [9, 9, 9, 6, 3, -3])) == ()
    assert check_circledast(new_scheme(2, [7])) == ()
    # column 4 forbids every kappa residue mod p (p | m_14, p does not
    # divide D_4); only primes below n count
    assert check_circledast(new_scheme(4, [2, 2, 2, 2, 1, 1])) == \
        (FailedToz(2, Fraction(2)),)
    assert check_circledast(new_scheme(4, [5, 5, 5, 5, 1, 1])) == ()


def test_check_circledast_lists_every_failing_prime():
    # g_123 = 6 and neither 2 nor 3 admits a kappa class: the check lists
    # both primes, increasing, as decide_torus does once the triangle and
    # Pluecker stages pass
    s = new_scheme(4, [-114, -66, -78, -30, 6, 24])
    assert check_triangle(s) == check_pluecker_full(s) == ()
    got = check_circledast(s)
    assert [f.prime for f in got] == [2, 3]
    assert got == decide_torus(s).reasons == reference.decide_torus(s).reasons


def test_verdict_field_invariant(rng):
    # realizable <=> no reasons <=> witness present
    for _ in range(200):
        s = random_nonzero_scheme(rng, rng.choice([3, 4, 5]))
        v = decide_torus(s)
        assert v.realizable == (not v.reasons) == (v.witness is not None)


def test_decide_examples():
    v = decide_torus(new_scheme(3, [6, 10, 14]))
    assert not v.realizable and v.reasons == (FailedToz(2, Fraction(2)),)

    v = decide_torus(new_scheme(3, [2, 2, 4]))
    assert v.realizable and v.witness is not None
    assert verify_system(new_scheme(3, [2, 2, 4]), v.witness)

    v = decide_torus(new_scheme(3, [3, 2, 0]))
    assert not v.realizable
    assert v.reasons == (UnresolvableZero(2, 3),)


def test_decide_reports_all_stage_failures():
    v = decide_torus(PENTA)
    assert not v.realizable
    assert all(isinstance(r, FailedTriangle) for r in v.reasons)
    assert len(v.reasons) >= 2  # several triples fail on this scheme


def test_decide_zero_reduction_with_witness():
    s = new_scheme(3, [0, 1, 0])
    v = decide_torus(s)
    assert v.realizable and v.used_empty
    assert verify_system(s, v.witness)

    s = new_scheme(3, [3, 3, 0])
    v = decide_torus(s)
    assert v.realizable and not v.used_empty
    assert verify_system(s, v.witness)


def test_constant_valuation_scaling_obstruction(rng):
    # multiplying a unit-valuation scheme by p < n forces toz(p) = n - 1
    for p in (2, 3):
        for _ in range(80):
            n = rng.choice([x for x in (3, 4, 5) if p < x])
            s = random_nonzero_scheme(rng, n)
            if any(e % p == 0 for e in s.entries):
                continue
            scaled = new_scheme(n, [p * e for e in s.entries])
            if check_triangle(scaled):
                continue
            totals = {e.prime: e.total for e in toz_report(scaled).per_prime}
            assert totals[p] == n - 1
            assert not decide_torus(scaled).realizable
            for fail in check_circledast(scaled):
                assert fail.total == totals[fail.prime]


def test_all_equal_schemes():
    for k in (1, 3, 5, 7, 9):
        assert decide_torus(new_scheme(3, [k] * 3)).realizable
    for k in (2, 4, 6, 8):
        assert not decide_torus(new_scheme(3, [k] * 3)).realizable
    for k in (1, -1, 2, 3, 5):
        assert not decide_torus(new_scheme(4, [k] * 6)).realizable


def test_permutation_invariance(rng):
    for _ in range(400):
        n = rng.choice([3, 4, 5])
        s = (random_vector_scheme(rng, n)
             if rng.random() < 0.5 else random_nonzero_scheme(rng, n))
        sig = random_permutation(rng, n)
        assert decide_torus(permute(s, sig)).realizable == \
            decide_torus(s).realizable


def test_decide_agrees_with_oracle_on_overcount_family():
    # realizable schemes whose naive per-column toz total reaches the prime;
    # the verdict must still match the exhaustive oracle
    for entries in (
        [9, 3, -6, 3, -15, -3, 3, -42, -12, -9],
        [4, 4, 8, 2, -2, -6, 2, 6, 2, 4],
    ):
        s = new_scheme(5, entries)
        v = decide_torus(s)
        assert v.realizable == oracle_realizable(s).realizable == True
        assert verify_system(s, v.witness)


# ---------------------------------------------------------------------------
# Screens through the pairs a primitive system misses
# ---------------------------------------------------------------------------


def _vectors(rng: random.Random, n: int, qmax: int) -> list:
    """n primitive vectors, pairwise independent, coordinates in
    [-qmax, qmax]."""
    vecs, seen = [], set()
    while len(vecs) < n:
        p, q = rng.randint(-qmax, qmax), rng.randint(-qmax, qmax)
        if gcd(p, q) != 1:
            continue
        key = (p, q) if q > 0 or (q == 0 and p > 0) else (-p, -q)
        if key not in seen:
            seen.add(key)
            vecs.append((p, q))
    return vecs


def _perturb(rng: random.Random, n: int, entries: list, pairs) -> None:
    """Change m_ij for each (i, j) in pairs: +-1, negated, times a small
    prime, or plus the lcm of rows i and j, which keeps every gcd."""
    for i, j in pairs:
        t = _pos(i, j)
        how = rng.choice(("unit", "negate", "prime", "lcm"))
        if how == "unit":
            entries[t] += rng.choice((-1, 1))
        elif how == "negate":
            entries[t] = -entries[t]
        elif how == "prime":
            entries[t] *= rng.choice((2, 3, 5))
        else:
            lcm = 1
            for k in range(1, n + 1):
                for x in (i, j):
                    if k != x:
                        e = entries[_pos(min(x, k), max(x, k))]
                        lcm = lcm * abs(e) // gcd(lcm, e) if e else lcm
            entries[t] += lcm


def _witness_missed(s):
    """The pairs construct_witness lists as missed when its primitive
    system misses only some determinants, as decide_torus sees them, or
    None."""
    try:
        cons = kappa_constraints(s)
    except PreconditionViolated:  # the base triple fails
        return None
    if not cons.feasible():
        return None
    try:
        construct_witness(s, canonical_kappa(cons))
    except ConstraintViolation as exc:
        return exc.missed
    return None


def _screen(s, missed):
    """The screen decide_torus hands both checks: s's dense rows and the
    missed pairs."""
    return dense_rows(s), missed


def test_screens_match_reference_with_and_without_a_system():
    rng = random.Random(20)
    witnessed = refuted = 0
    for n in [*range(4, 15), 18, 22, 30]:
        for qmax in (6, 30, 10**6, 10**15):
            vecs = _vectors(rng, n, qmax)
            entries = dets(vecs)
            inside = [(i, j) for j in range(2, n + 1) for i in range(1, min(j, 4))]
            outside = [(i, j) for j in range(5, n + 1) for i in range(4, j)]
            where = rng.choice([inside, outside or inside, inside + outside])
            k = min(len(where), rng.randint(1, 3))
            _perturb(rng, n, entries, rng.sample(where, k))
            s = new_scheme(n, entries)
            v = decide_torus(s)
            if v.realizable or isinstance(v.reasons[0], FailedToz):
                # the reference's residue scan cannot reach entries of
                # 10^30; the witness verifies on its own
                assert v.realizable == bool(v.witness)
                assert not v.witness or reference.verify_system(s, v.witness)
            else:
                assert v.reasons == reference.decide_torus(s).reasons
            if 0 in entries:
                continue
            # the pairs the unperturbed vectors miss, and those the
            # witness attempt misses
            screens = [list(_mismatches(s, [curve(p, q) for p, q in vecs])),
                       _witness_missed(s)]
            witnessed += screens[1] is not None
            for checker, ref in ((check_triangle, reference.check_triangle),
                                 (check_pluecker_full,
                                  reference.check_pluecker_full)):
                want = ref(s)
                assert checker(s) == want
                for missed in screens:
                    if missed is not None:
                        assert checker(s, _screen=_screen(s, missed)) == want
            refuted += not v.realizable
    # the witness path and the refutations are both exercised
    assert witnessed >= 30 and refuted >= 45


def test_triangle_screen_tests_only_triples_through_missed_pairs(monkeypatch):
    from toruscurves import conditions

    tested = []
    scan = conditions._unequal_gcds

    def counted(rows, groups):
        groups = list(groups)
        tested.append(sum(len(ks) for _, _, ks in groups))
        return scan(rows, groups)

    monkeypatch.setattr(conditions, "_unequal_gcds", counted)
    n = 40
    vecs = _vectors(random.Random(n), n, 30)
    entries = dets(vecs)
    entries[-1] += 1  # m_{n-1,n}: only triples (i, n-1, n) can fail
    s = new_scheme(n, entries)
    missed = _witness_missed(s)
    assert missed is not None
    want = reference.check_triangle(s)
    assert want
    tested.clear()
    assert check_triangle(s, _screen=_screen(s, missed)) == want
    assert sum(tested) == n - 2
    tested.clear()
    assert decide_torus(s).reasons == want
    assert sum(tested) == n - 2
    # without a screen everything is scanned; the vectors of s itself miss
    # only the perturbed pair
    tested.clear()
    assert check_triangle(s) == want and sum(tested) == comb(n, 3)
    tested.clear()
    vecs_missed = list(_mismatches(s, [curve(p, q) for p, q in vecs]))
    assert check_triangle(s, _screen=_screen(s, vecs_missed)) == want
    assert sum(tested) == n - 2


def test_non_primitive_system_does_not_narrow_the_triangle_scan():
    # (2,0), (0,1), (1,1) give every determinant of (3; 2, 2, -1), but
    # (2,0) is not primitive, and the triple (1,2,3) fails (gcds 2, 1, 1):
    # the triangle screen needs primitive vectors, which construct_witness
    # alone supplies
    s = new_scheme(3, [2, 2, -1])
    system = (curve(2, 0), curve(0, 1), curve(1, 1))
    assert [get(s, i, j) for i, j in ((1, 2), (1, 3), (2, 3))] == [
        u.p * w.q - w.p * u.q
        for u, w in ((system[0], system[1]), (system[0], system[2]),
                     (system[1], system[2]))
    ]
    want = (FailedTriangle(1, 2, 3),)
    assert check_triangle(s) == want
    assert decide_torus(s).reasons == want
    # the Pluecker relations of a non-primitive system's determinants hold
    t = new_scheme(4, dets([(2, 0), (0, 1), (1, 1), (1, 3)]))
    assert check_pluecker_full(t) == ()


@pytest.mark.parametrize("cls, idx", [(FailedTriangle, (2, 5, 7)),
                                      (FailedPluecker, (1, 3, 4, 8))])
def test_reason_records_are_type_strict_index_tuples(cls, idx):
    import copy
    import pickle

    r = cls(*idx)
    names = "ijkl"[:len(idx)]
    assert tuple(getattr(r, a) for a in names) == idx
    assert cls(**dict(zip(names, idx))) == r
    assert repr(r) == f"{cls.__name__}(" + ", ".join(
        f"{a}={v}" for a, v in zip(names, idx)) + ")"
    assert r == type(r)(*r) and not r != type(r)(*r)
    # equal only to its own type, whichever operand comes first
    assert r != tuple(r) and tuple(r) != r
    assert not r == tuple(r) and not tuple(r) == r
    assert FailedTriangle(1, 2, 3) != (1, 2, 3)
    assert FailedTriangle(1, 2, 3) != FailedPluecker(1, 2, 3, 4)[:3]
    assert hash(r) == hash(tuple(r))
    for name in (*names, "other"):
        with pytest.raises(AttributeError):
            setattr(r, name, 9)
    for back in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r), copy.copy(r)):
        assert type(back) is cls and back == r and repr(back) == repr(r)
    with pytest.raises(TypeError):
        cls(*idx, 1)


def test_refuted_verdicts_compare_and_hash_by_their_reasons():
    for s in (PENTA, new_scheme(4, [5, 15, 15, 15, 15, 4])):
        a, b = decide_torus(s), decide_torus(new_scheme(s.n, s.entries))
        assert not a.realizable and a == b and hash(a) == hash(b)
        assert a.reasons == reference.decide_torus(s).reasons
    plain = decide_torus(PENTA)
    swapped = type(plain)(False, tuple(tuple(r) for r in plain.reasons),
                          None, False, plain.reduction)
    assert swapped != plain


def _plus_lcm(entries: list, pairs) -> list:
    """m_ij plus the lcm of all entries, for each (i, j) in pairs in turn,
    which keeps every gcd: only Pluecker relations through them fail."""
    for i, j in pairs:
        lcm = 1
        for e in entries:
            lcm = lcm * abs(e) // gcd(lcm, e) if e else lcm
        entries[_pos(i, j)] += lcm
    return entries


def test_plucker_refutation_lists_missed_pairs_once(monkeypatch):
    from toruscurves import conditions, solver

    n = 28
    s = new_scheme(n, _plus_lcm(dets(_vectors(random.Random(n), n, 30)),
                                [(n - 1, n)]))
    want = reference.decide_torus(s).reasons
    assert len(want) == comb(n - 2, 2)
    assert all(isinstance(r, FailedPluecker) for r in want)
    passes, copies = [], []
    mismatches, rows = solver._mismatches, conditions.dense_rows

    def counted_mismatches(sc, system):
        passes.append(sc.n)
        return mismatches(sc, system)

    def counted_rows(sc):
        copies.append(sc.n)
        return rows(sc)

    monkeypatch.setattr(solver, "_mismatches", counted_mismatches)
    monkeypatch.setattr(conditions, "dense_rows", counted_rows)
    assert decide_torus(s).reasons == want
    # one pass checks the witness and lists B for both checks, which share
    # one dense copy
    assert passes == [n]
    assert copies == [n]


def test_each_check_applies_its_own_cap_to_the_missed_pairs(monkeypatch):
    # n = 28: the triangle screen takes up to 7 missed pairs, the Pluecker
    # screen up to 3; five entries off rows 1-3 plus their rows' lcm keep
    # every gcd and leave the witness attempt exactly those five misses
    n = 28
    assert (comb(n, 3) // (16 * (n - 2)), comb(n, 4) // (16 * comb(n - 2, 2))) == (7, 3)
    pairs = random.Random(6).sample(
        [(i, j) for j in range(5, n + 1) for i in range(4, j)], 5)
    s = new_scheme(n, _plus_lcm(dets(_vectors(random.Random(5), n, 30)), pairs))
    assert check_triangle(s) == ()
    with pytest.raises(ConstraintViolation) as exc:
        construct_witness(s, canonical_kappa(kappa_constraints(s)))
    assert sorted(exc.value.missed) == sorted((i - 1, j - 1) for i, j in pairs)
    calls = count_pluecker_tests(monkeypatch)
    v = decide_torus(s)
    assert v.reasons == reference.decide_torus(s).reasons
    # five missed pairs are over the Pluecker cap, so the check probes the
    # three base pairs; the five miss curves 1-6, so each base pair has
    # those five bad pairs, and all C(n, 4) quadruples are tested
    assert all(i > 6 for i, _ in pairs)
    assert [pairs for pairs, _ in calls] == [[(0, 1)], [(2, 3)], [(4, 5)],
                                             calls[-1][0]]
    assert calls[-1][1] == comb(n, 4)


def test_missed_lists_every_missed_pair_past_the_caps():
    # n = 28: ten entries off rows 1-3 plus their rows' lcm keep every gcd
    # and leave the witness attempt exactly those ten misses, more than
    # either screen's cap (7 and 3); all ten are listed, in column order
    n = 28
    pairs = random.Random(10).sample(
        [(i, j) for j in range(5, n + 1) for i in range(4, j)], 10)
    s = new_scheme(n, _plus_lcm(dets(_vectors(random.Random(9), n, 30)), pairs))
    with pytest.raises(ConstraintViolation) as exc:
        construct_witness(s, canonical_kappa(kappa_constraints(s)))
    assert exc.value.missed == sorted(((i - 1, j - 1) for i, j in pairs),
                                      key=lambda ij: (ij[1], ij[0]))
    v = decide_torus(s)
    assert v.reasons == reference.decide_torus(s).reasons
    assert v.reasons and all(type(r) is FailedPluecker for r in v.reasons)


def test_zero_reduced_refutation_relabels_each_reason_once():
    n = 20
    vecs = _vectors(random.Random(n), n, 30)
    # a duplicate of curve 1 and an Empty curve appended, or put in front
    # so that every survivor moves
    for system, last in (([*vecs, vecs[0], None], (n - 1, n)),
                         ([None, vecs[0], *vecs], (n + 1, n + 2))):
        s = new_scheme(len(system), _plus_lcm(dets(system), [last]))
        v = decide_torus(s)
        assert len(v.reduction.steps) == 2
        assert v.reasons == reference.decide_torus(s).reasons
        assert len(v.reasons) == comb(n - 2, 2)
        assert all(type(r) is FailedPluecker for r in v.reasons)
