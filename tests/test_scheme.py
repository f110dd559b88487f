import random
import re
from fractions import Fraction

import pytest

from toruscurves import (
    DomainError,
    EMPTY_CURVE,
    InvalidPermutation,
    InvalidShape,
    Scheme,
    Unresolvable,
    curve,
    get,
    lift_system,
    new_scheme,
    permute,
    reduce_zeros,
    scheme_sum,
)
from toruscurves.scheme import dense_rows
from reference import replay_reduction
from conftest import (
    every_route,
    random_nonzero_scheme,
    random_permutation,
    random_vector_scheme,
)


def test_new_scheme():
    s = new_scheme(3, [6, 10, 14])
    assert (get(s, 1, 2), get(s, 1, 3), get(s, 2, 3)) == (6, 10, 14)
    assert new_scheme(1, []).entries == ()
    with pytest.raises(InvalidShape):
        new_scheme(3, [1, 2])
    with pytest.raises(InvalidShape):
        new_scheme(0, [])


def test_dense_rows_is_the_antisymmetric_matrix():
    rng = random.Random(22)
    for n in (*range(1, 13), 44, 160):
        entries = [rng.choice((-1, 1)) * rng.randint(10**30 - 10**6, 10**30)
                   if rng.random() < 0.5 else rng.randint(-9, 9)
                   for _ in range(n * (n - 1) // 2)]
        s = new_scheme(n, entries)
        assert dense_rows(s) == [
            [0 if i == j else get(s, i + 1, j + 1) for j in range(n)]
            for i in range(n)
        ]


def test_new_scheme_rejects_non_integers():
    for bad in (2.9, 4.0, "2", Fraction(4, 1), None):
        # a one-shot iterator too, which the first conversion consumes
        for seq in ([2, bad, 4], (2, bad, 4), iter([2, bad, 4])):
            with pytest.raises(DomainError, match=r"entries\[1\] "):
                new_scheme(3, seq)
    assert new_scheme(3, iter([2, 3, 4])).entries == (2, 3, 4)
    big = 10**400
    assert new_scheme(3, [big, -big, True]).entries == (big, -big, 1)
    # n too, so a float or string n never reaches Scheme or decide_torus
    for bad in (3.0, "3", Fraction(3, 1), None):
        with pytest.raises(DomainError, match=r"^n is "):
            new_scheme(bad, [1, 1, 1])
    assert new_scheme(True, []).n == 1


def test_scheme_constructor_rejects_non_integer_n_and_non_tuples():
    # Scheme is public too: a float n used to build and then make
    # decide_torus raise TypeError, and list entries made it unhashable.
    # Every route to an instance checks alike: the constructor, _make,
    # _replace, copy.deepcopy and pickle
    s = Scheme(3, (1, 1, 1))
    routes = every_route(s)
    for build in routes:
        for bad in (3.0, "3", Fraction(3, 1), None):
            with pytest.raises(DomainError,
                               match=rf"^n is {re.escape(repr(bad))}, "
                                     "not an integer$"):
                build(bad, (1, 1, 1))
        for bad in ([1, 1, 1], range(1, 4)):
            with pytest.raises(DomainError, match=rf"^entries is a "
                               rf"{type(bad).__name__}, not a tuple$"):
                build(3, bad)
        with pytest.raises(InvalidShape, match=r"^n=3 needs 3 entries, got 2$"):
            build(3, (1, 1))
        with pytest.raises(InvalidShape, match=r"^need n >= 1, got n=0$"):
            build(0, ())
        assert build(3, (1, 1, 1)) == s
        # n is stored as operator.index returns it, not as passed
        one = build(True, ())
        assert type(one.n) is int and repr(one) == "Scheme(n=1, [])"
    # a generator can be neither copied nor pickled
    for build in routes[:3]:
        with pytest.raises(DomainError,
                           match=r"^entries is a generator, not a tuple$"):
            build(3, (x for x in (1, 1, 1)))
    assert hash(s) == hash(new_scheme(3, [1, 1, 1])) and s.n == 3
    with pytest.raises(AttributeError):
        s.n = 4


def test_get_antisymmetric():
    s = new_scheme(3, [6, 10, 14])
    assert get(s, 2, 1) == -6
    with pytest.raises(IndexError):
        get(s, 3, 3)
    with pytest.raises(IndexError):
        get(s, 0, 1)
    for i in range(1, 4):
        for j in range(1, 4):
            if i != j:
                assert get(s, i, j) == -get(s, j, i)


def test_permute_examples():
    assert permute(new_scheme(3, [1, 1, 1]), (2, 1, 3)).entries == (-1, 1, 1)
    s = new_scheme(3, [6, 10, 14])
    assert permute(s, (1, 2, 3)) == s
    out = permute(new_scheme(4, [1, 1, 1, 2, 1, -1]), (1, 2, 4, 3))
    assert out.entries == (1, 2, 1, 1, 1, 1)
    with pytest.raises(InvalidPermutation):
        permute(s, (1, 1, 2))


def test_permute_group_action(rng):
    for _ in range(200):
        n = rng.choice([2, 3, 4, 5])
        s = random_nonzero_scheme(rng, n)
        sig, tau = random_permutation(rng, n), random_permutation(rng, n)
        composed = tuple(sig[tau[i] - 1] for i in range(n))
        assert permute(permute(s, sig), tau) == permute(s, composed)
        assert permute(s, tuple(range(1, n + 1))) == s


def test_scheme_sum():
    a, b = new_scheme(3, [1, 5, 14]), new_scheme(3, [5, 5, 0])
    assert scheme_sum(a, b) == new_scheme(3, [6, 10, 14])
    m = new_scheme(3, [1, 1, 1])
    assert scheme_sum(m, new_scheme(3, [0, 0, 0])) == m
    assert scheme_sum(m, m) == new_scheme(3, [2, 2, 2])
    with pytest.raises(InvalidShape):
        scheme_sum(m, new_scheme(2, [1]))


def test_reduce_zeros_duplicate():
    log = reduce_zeros(new_scheme(3, [3, 3, 0]))
    assert log.reduced == new_scheme(2, [3])
    (step,) = log.steps
    assert (step.removed_index, step.of_index, step.sign) == (3, 2, 1)
    assert log.survivors == (1, 2)


def test_reduce_zeros_unresolvable():
    out = reduce_zeros(new_scheme(3, [3, 2, 0]))
    assert isinstance(out, Unresolvable)
    assert (out.i, out.j) == (2, 3)


def test_reduce_zeros_empty_row():
    log = reduce_zeros(new_scheme(3, [0, 1, 0]))
    assert log.reduced == new_scheme(2, [1])
    (step,) = log.steps
    assert step.removed_index == 2 and step.reason == "empty"
    assert log.survivors == (1, 3)


def test_reduce_zeros_negated_duplicate():
    log = reduce_zeros(new_scheme(3, [3, -3, 0]))
    assert log.reduced == new_scheme(2, [3])
    (step,) = log.steps
    assert step.sign == -1


def test_reduce_zeros_steps_name_original_curves():
    # (1,0), Empty, (0,1), (-1,0), (0,1), (1,1)
    system = (curve(1, 0), EMPTY_CURVE, curve(0, 1), curve(-1, 0),
              curve(0, 1), curve(1, 1))
    s = new_scheme(6, [0, 1, 0, 0, 0, 1, 1, 0, 0, -1, 1, 0, -1, -1, -1])
    log = reduce_zeros(s)
    assert [
        (st.removed_index, st.reason, st.of_index, st.sign) for st in log.steps
    ] == [(2, "empty", None, None), (4, "duplicate_of", 1, -1),
          (5, "duplicate_of", 3, 1)]
    assert log.survivors == (1, 3, 6)
    assert log.reduced == new_scheme(3, [1, 1, -1])
    assert lift_system(log, (curve(1, 0), curve(0, 1), curve(1, 1))) == system
    assert replay_reduction(log) == s


def test_reduce_zeros_output_nonzero(rng):
    for _ in range(500):
        n = rng.choice([2, 3, 4, 5])
        k = n * (n - 1) // 2
        s = Scheme(n, tuple(rng.choice([-2, -1, 0, 0, 1, 2]) for _ in range(k)))
        out = reduce_zeros(s)
        if isinstance(out, Unresolvable):
            continue
        assert all(e != 0 for e in out.reduced.entries)
        assert replay_reduction(out) == s


def test_replay_reconstructs_multistep():
    s = new_scheme(4, [0, 5, 0, 5, 0, 5])  # curves 1,3 empty-ish pattern
    out = reduce_zeros(s)
    if not isinstance(out, Unresolvable):
        assert replay_reduction(out) == s


def test_curveclass_basics():
    assert EMPTY_CURVE.is_empty and EMPTY_CURVE.is_primitive()
    assert curve(2, 0).is_primitive() is False
    assert curve(0, 0).is_primitive() is False
    assert curve(-1, 1).negated() == curve(1, -1)


def test_random_vector_scheme_distinct_bound():
    # [-3, 3]^2 holds 16 primitive vectors up to sign: 16 distinct curve
    # classes can be drawn, 17 cannot and must not loop forever
    rng = random.Random(3)
    s = random_vector_scheme(rng, 16, qmax=3, distinct=True)
    assert s.n == 16 and 0 not in s.entries
    with pytest.raises(ValueError):
        random_vector_scheme(rng, 17, qmax=3, distinct=True)
