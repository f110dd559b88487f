import os
import re
import subprocess
import sys
from math import prod

import pytest
from hypothesis import given, strategies as st

from toruscurves import (
    DomainError,
    InvalidModuli,
    ResidueClass,
    crt,
    factorize,
    is_probable_prime,
    valuation,
    xgcd,
)
from conftest import every_route

ints = st.integers(min_value=-(10**12), max_value=10**12)


def test_xgcd_examples():
    g, x, y = xgcd(10, 6)
    assert g == 2 and 10 * x + 6 * y == 2
    g, x, y = xgcd(5, 3)
    assert g == 1 and 5 * x + 3 * y == 1
    assert xgcd(0, 0)[0] == 0


@given(ints, ints)
def test_xgcd_identity(a, b):
    g, x, y = xgcd(a, b)
    assert a * x + b * y == g
    assert g >= 0
    if g:
        assert a % g == 0 and b % g == 0


def test_residue_class_validates_and_is_frozen():
    # a type-strict record whose __new__ checks every instance: the
    # constructor, _make, _replace, copy.deepcopy and pickle alike
    c = ResidueClass(5, 4)
    for build in every_route(c):
        for m, r in ((0, 0), (-3, 1)):
            with pytest.raises(DomainError,
                               match=rf"^modulus must be >= 1, got {m}$"):
                build(m, r)
        for m, r in ((5, -1), (5, 5), (1, 1)):
            with pytest.raises(DomainError, match=re.escape(
                    f"residue {r} not in [0, {m})") + "$"):
                build(m, r)
        # both fields go through operator.index and are stored as it
        # returns them
        for m, r, name, bad in ((2.5, 0, "modulus", 2.5),
                                (5, 4.0, "residue", 4.0),
                                ("5", 4, "modulus", "'5'")):
            with pytest.raises(DomainError,
                               match=rf"^{name} is {bad}, not an integer$"):
                build(m, r)
        unit = build(True, False)
        assert unit == ResidueClass(1, 0)
        assert [type(x) for x in unit] == [int, int]
        assert build(5, 4) == c
    assert (c.modulus, c.residue) == (5, 4) and ResidueClass(1, 0).residue == 0
    with pytest.raises(AttributeError):
        c.residue = 7


def test_crt_examples():
    assert crt([ResidueClass(2, 1), ResidueClass(3, 2)]) == ResidueClass(6, 5)
    out = crt([ResidueClass(2, 1), ResidueClass(9, 5)])
    assert out == ResidueClass(18, 5)
    assert crt([ResidueClass(7, 3)]) == ResidueClass(7, 3)
    assert crt([]) == ResidueClass(1, 0)
    assert crt([ResidueClass(1, 0), ResidueClass(5, 3)]) == ResidueClass(5, 3)
    with pytest.raises(InvalidModuli,
                       match=r"^modulus 4 shares factor 2 with the others$"):
        crt([ResidueClass(4, 1), ResidueClass(6, 5)])


@given(st.permutations([5, 8, 9, 7, 11]), st.data())
def test_crt_reduces_to_inputs(moduli, data):
    classes = [
        ResidueClass(m, data.draw(st.integers(min_value=0, max_value=m - 1)))
        for m in moduli
    ]
    out = crt(classes)
    for cls in classes:
        assert out.residue % cls.modulus == cls.residue


def test_factorize_examples():
    assert factorize(12).pairs == ((2, 2), (3, 1))
    assert factorize(1).pairs == ()
    assert factorize(9).pairs == ((3, 2),)
    with pytest.raises(DomainError):
        factorize(0)


@given(st.integers(min_value=1, max_value=10**10))
def test_factorize_roundtrip(n):
    f = factorize(n)
    assert prod(p**e for p, e in f.pairs) == n
    for p, e in f.pairs:
        assert is_probable_prime(p)
        assert e >= 1
    primes = [p for p, _ in f.pairs]
    assert primes == sorted(primes)


def test_factorize_large_semiprime():
    n = 1000003 * 1000033  # both above the trial-division bound
    assert factorize(n).pairs == ((1000003, 1), (1000033, 1))


M61 = 2**61 - 1


@pytest.mark.parametrize("code", [
    f"assert factorize({M61}**2).pairs == (({M61}, 2),)",
    f"assert factorize(3**5 * 1031**4 * {M61}**3).pairs == "
    f"((3, 5), (1031, 4), ({M61}, 3))",
    f"s = new_scheme(3, [2 * {M61}**2, 3 * {M61}**2, 5 * {M61}**2]); "
    "v = decide_torus(s); assert v.realizable and verify_system(s, v.witness)",
], ids=["square", "cube_after_trial_division", "decide"])
def test_prime_powers_of_a_large_prime_factor_quickly(code):
    # Pollard rho alone needs about sqrt(p) steps on p^k; factorize splits
    # the perfect power by its integer root, and a hang fails at the timeout
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    proc = subprocess.run(
        [sys.executable, "-c", "from toruscurves import decide_torus, "
         "factorize, new_scheme, verify_system; " + code],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_valuation_examples():
    assert valuation(6, 3) == 1
    assert valuation(-3, 3) == 1
    assert valuation(5, 3) == 0
    with pytest.raises(DomainError):
        valuation(0, 3)


@given(st.integers(min_value=-(10**6), max_value=10**6).filter(bool),
       st.integers(min_value=-(10**6), max_value=10**6).filter(bool),
       st.sampled_from([2, 3, 5, 7]))
def test_valuation_additive(a, b, p):
    assert valuation(a * b, p) == valuation(a, p) + valuation(b, p)


def test_miller_rabin_known_values():
    primes = [2, 3, 5, 7, 11, 101, 104729, 2**31 - 1]
    composites = [1, 4, 9, 561, 41041, 825265, 2**32 + 1]
    assert all(is_probable_prime(p) for p in primes)
    assert not any(is_probable_prime(c) for c in composites)


def test_next_prime():
    from toruscurves.intarith import next_prime

    def brute(n):
        m = max(n + 1, 2)
        while any(m % k == 0 for k in range(2, m)):
            m += 1
        return m

    for n in range(-3, 300):
        assert next_prime(n) == brute(n), n
    assert next_prime(2**89 - 2) == 2**89 - 1


def test_baillie_psw_above_deterministic_bound():
    # the least strong pseudoprime to the twelve fixed Miller-Rabin bases
    psp = 1287836182261 * 2575672364521
    assert psp == 3317044064679887385961981
    assert not is_probable_prime(psp)
    assert factorize(psp).pairs == ((1287836182261, 1), (2575672364521, 1))
    assert is_probable_prime(2**89 - 1)
    assert is_probable_prime(2**127 - 1)
    assert not is_probable_prime((2**61 - 1) * (2**89 - 1))
    assert not is_probable_prime((2**89 - 1) ** 2)


def test_strong_lucas_pseudoprimes():
    # the odd composites below 2*10^4 with no prime factor up to 37 that
    # pass the strong Lucas test with Selfridge's parameters: the strong
    # Lucas pseudoprimes of OEIS A217255 (none of them has such a factor)
    from toruscurves.intarith import _strong_lucas

    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    odd = [m for m in range(41, 2 * 10**4, 2) if all(m % p for p in small)]
    # is_probable_prime is deterministic here, far below 3.3 * 10^24
    pseudo = [m for m in odd if _strong_lucas(m) != is_probable_prime(m)]
    assert pseudo == [5459, 5777, 10877, 16109, 18971]
