from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from toruscurves import (
    FailedPluecker,
    FailedToz,
    FailedTriangle,
    PreconditionViolated,
    UnresolvableZero,
    check_circledast,
    check_pluecker_full,
    check_triangle,
    decide_torus,
    new_scheme,
    oracle_realizable,
    permute,
    pluecker_identity,
    pluecker_mu,
    toz_report,
    verify_system,
)
from conftest import random_nonzero_scheme, random_permutation, random_vector_scheme

PENTA = new_scheme(4, [5, 15, 15, 15, 15, 3])


def test_check_triangle():
    out = check_triangle(new_scheme(3, [6, 10, 14]))
    assert out.ok and out.failures == ()
    out = check_triangle(PENTA)
    assert not out.ok and out.failure == FailedTriangle(1, 2, 3)
    assert check_triangle(new_scheme(3, [1, 1, 1])).ok
    with pytest.raises(PreconditionViolated):
        check_triangle(new_scheme(3, [1, 0, 1]))


def test_pluecker_mu():
    assert pluecker_mu(new_scheme(4, [1, 1, 1, 2, 1, -1]), 1, 2, 3, 4) == 0
    assert pluecker_mu(new_scheme(4, [1] * 6), 1, 2, 3, 4) == 1
    assert pluecker_mu(PENTA, 1, 2, 3, 4) == 15
    with pytest.raises(IndexError):
        pluecker_mu(PENTA, 2, 1, 3, 4)


def test_check_pluecker_full():
    assert check_pluecker_full(new_scheme(4, [1, 1, 1, 2, 1, -1])).ok
    assert check_pluecker_full(new_scheme(3, [1, 1, 1])).ok  # vacuous
    out = check_pluecker_full(PENTA)
    assert out.failure == FailedPluecker(1, 2, 3, 4)


def test_pluecker_identity_worked_example():
    # row-order values m_12..m_45 = 1..10 (column-order storage below)
    s = new_scheme(5, [1, 2, 5, 3, 6, 8, 4, 7, 9, 10])
    assert pluecker_mu(s, 1, 2, 3, 4) == 11
    assert pluecker_mu(s, 1, 2, 3, 5) == 15
    assert pluecker_mu(s, 1, 2, 4, 5) == 13
    assert pluecker_mu(s, 1, 3, 4, 5) == 25
    assert pluecker_identity(s, 1, 2, 3, 4, 5) == 0
    with pytest.raises(IndexError):
        pluecker_identity(s, 1, 2, 3, 4, 4)


@given(st.lists(st.integers(min_value=-99, max_value=99), min_size=10,
                max_size=10))
def test_pluecker_identity_is_identity(entries):
    s = new_scheme(5, entries)
    assert pluecker_identity(s, 1, 2, 3, 4, 5) == 0
    assert pluecker_identity(s, 2, 4, 1, 5, 3) == 0


def test_toz_report_paper_fixtures():
    r = toz_report(new_scheme(4, [9, 9, 9, 6, 3, -3]))
    assert r.base_gcd == 9
    assert r.total_for(3) == Fraction(7, 3)
    assert r.total_for(2) == 0
    (entry,) = r.per_prime
    assert entry.contributions == (Fraction(1), Fraction(1), Fraction(1, 3))

    r = toz_report(new_scheme(4, [3, 3, 3, 6, 3, -3]))
    assert r.total_for(3) == 3 and r.total_for(2) == 0

    r = toz_report(new_scheme(4, [1, 1, 1, 2, 1, -1]))
    assert all(t == 0 for _, t in r.checked_primes)


def test_toz_contribution_bounds(rng):
    for _ in range(300):
        n = rng.choice([3, 4, 5, 6])
        s = random_nonzero_scheme(rng, n)
        tri = check_triangle(s)
        if not tri.ok:
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
    assert out == FailedToz(2, Fraction(2))
    assert check_circledast(new_scheme(4, [9, 9, 9, 6, 3, -3])) is None
    assert check_circledast(new_scheme(2, [7])) is None
    # column 4 forbids every kappa residue mod p (p | m_14, p does not
    # divide D_4); only primes below n count
    assert check_circledast(new_scheme(4, [2, 2, 2, 2, 1, 1])) == \
        FailedToz(2, Fraction(2))
    assert check_circledast(new_scheme(4, [5, 5, 5, 5, 1, 1])) is None


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
            if not check_triangle(scaled).ok:
                continue
            report = toz_report(scaled)
            assert report.total_for(p) == n - 1
            assert not decide_torus(scaled).realizable
            fail = check_circledast(scaled)
            if fail is not None:
                assert fail.total == report.total_for(fail.prime)


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
