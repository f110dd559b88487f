import pytest

from toruscurves import (
    DomainError,
    PreconditionViolated,
    decide_torus,
    new_scheme,
    oracle_realizable,
    verify_system,
)
from conftest import phi, random_nonzero_scheme, random_vector_scheme


def test_oracle_examples():
    out = oracle_realizable(new_scheme(3, [6, 10, 14]))
    assert not out.realizable and out.orbit_count == 0 and not out.witnesses

    out = oracle_realizable(new_scheme(3, [2, 2, 4]))
    assert out.realizable and out.orbit_count == 1
    (w,) = out.witnesses
    assert w.kappa == 1 and w.r == (1, -1)

    assert oracle_realizable(new_scheme(2, [6])).orbit_count == 2
    assert oracle_realizable(new_scheme(2, [7])).orbit_count == 6
    assert oracle_realizable(new_scheme(3, [1, 1, 1])).orbit_count == 1


def test_oracle_preconditions():
    with pytest.raises(PreconditionViolated):
        oracle_realizable(new_scheme(3, [1, 0, 1]))
    with pytest.raises(DomainError):
        oracle_realizable(new_scheme(2, [10**7]))


def test_oracle_witnesses_verify(rng):
    for _ in range(150):
        n = rng.choice([2, 3, 4])
        s = random_vector_scheme(rng, n, qmax=5)
        if any(e == 0 for e in s.entries):
            continue
        out = oracle_realizable(s)
        assert out.realizable
        for w in out.witnesses:
            assert verify_system(s, w.system)


def test_oracle_pair_counts_are_phi():
    for m in range(1, 60):
        assert oracle_realizable(new_scheme(2, [m])).orbit_count == phi(m)
        assert oracle_realizable(new_scheme(2, [-m])).orbit_count == phi(m)


def test_oracle_agrees_with_decide(rng):
    for _ in range(1500):
        n = rng.choice([3, 4, 5])
        s = random_nonzero_scheme(rng, n)
        assert oracle_realizable(s).realizable == decide_torus(s).realizable
