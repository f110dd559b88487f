from itertools import combinations, product
from math import gcd

import pytest

from toruscurves import (
    AlreadyTorus,
    Decomposition,
    DomainError,
    InvalidShape,
    PreconditionViolated,
    bounded_decomposition_search,
    coprime_shift,
    decide_torus,
    decompose_3scheme,
    endemic_family,
    genus_upper_bound,
    new_scheme,
    pluecker_mu,
    scheme_sum,
)
from toruscurves.genus import (
    _left_mask,
    _progression,
    _quotient_mask,
    _triple_mask,
)
from toruscurves.scheme import Scheme, get

import bench_series
from conftest import dets, random_vector_scheme
from reference import realizable3, search_generic


def test_genus_upper_bound():
    assert genus_upper_bound(4) == 8
    assert genus_upper_bound(2) == 1
    assert genus_upper_bound(3) == 4
    with pytest.raises(DomainError):
        genus_upper_bound(1)


def test_coprime_shift_examples():
    k = coprime_shift(6, 10, 14)
    assert gcd(6 - k, 10 - k) == gcd(6 - k, 14) == gcd(10 - k, 14) == 1
    assert k == 1  # smallest nonnegative solution
    k = coprime_shift(2, 4, 7)
    assert gcd(2 - k, 4 - k) == gcd(2 - k, 7) == gcd(4 - k, 7) == 1
    k = coprime_shift(3, 5, 4)
    assert gcd(3 - k, 5 - k) == gcd(3 - k, 4) == gcd(5 - k, 4) == 1
    with pytest.raises(PreconditionViolated):
        coprime_shift(1, 2, 3)
    with pytest.raises(PreconditionViolated):
        coprime_shift(2, 4, 0)


def test_coprime_shift_property(rng):
    for _ in range(400):
        a = rng.randint(-40, 40)
        b = a + 2 * rng.randint(-20, 20)
        c = rng.choice([x for x in range(-30, 31) if x])
        k = coprime_shift(a, b, c)
        assert gcd(a - k, b - k) == 1
        assert gcd(a - k, c) == 1 and gcd(b - k, c) == 1


def test_decompose_paper_example():
    out = decompose_3scheme(new_scheme(3, [6, 10, 14]))
    assert isinstance(out, Decomposition)
    assert scheme_sum(out.left, out.right) == new_scheme(3, [6, 10, 14])
    assert out.left_verdict.realizable and out.right_verdict.realizable


def test_decompose_zero_case():
    out = decompose_3scheme(new_scheme(3, [3, 2, 0]))
    assert out.left == new_scheme(3, [2, 2, 0])
    assert out.right == new_scheme(3, [1, 0, 0])
    assert out.left_verdict.realizable and out.right_verdict.realizable


def test_decompose_already_torus():
    out = decompose_3scheme(new_scheme(3, [1, 1, 1]))
    assert isinstance(out, AlreadyTorus)
    with pytest.raises(InvalidShape):
        decompose_3scheme(new_scheme(4, [1] * 6))


def test_every_3scheme_splits(rng):
    # genus(3-scheme) <= 2: every non-torus triple decomposes
    for _ in range(500):
        entries = [rng.randint(-20, 20) for _ in range(3)]
        s = new_scheme(3, entries)
        out = decompose_3scheme(s)
        if isinstance(out, AlreadyTorus):
            assert out.verdict.realizable
            continue
        assert scheme_sum(out.left, out.right) == s
        assert out.left_verdict.realizable and out.right_verdict.realizable


def test_endemic_family():
    assert endemic_family(3, 5) == new_scheme(4, [5, 15, 15, 15, 15, 3])
    assert endemic_family(5, 7) == new_scheme(4, [7, 35, 35, 35, 35, 5])
    with pytest.raises(DomainError):
        endemic_family(2, 5)
    with pytest.raises(DomainError):
        endemic_family(9, 5)
    with pytest.raises(DomainError):
        endemic_family(5, 5)


def test_endemic_family_not_torus():
    for p, q in ((3, 5), (3, 7), (5, 3), (7, 11)):
        assert not decide_torus(endemic_family(p, q)).realizable


def test_realizable3_matches_decide(rng):
    for _ in range(800):
        x, y, z = (rng.randint(-9, 9) for _ in range(3))
        assert realizable3(x, y, z) == \
            decide_torus(new_scheme(3, [x, y, z])).realizable


def test_triple_mask_matches_realizable3():
    # the range holds zeros, x = +-y, and even common gcds with odd
    # cofactors (6, 10) and with an even one (4, 8)
    r3 = {(x, y, z): realizable3(x, y, z)
          for x in range(-12, 13) for y in range(-12, 13)
          for z in range(-20, 21)}
    for x, y, c in product(range(-12, 13), repeat=3):
        want = sum(1 << (v + 8) for v in range(-8, 9) if r3[x, y, c - v])
        for bound in range(9):
            # the bits of v in [-bound, bound] of the bound-8 mask
            low = want >> (8 - bound) & (1 << (2 * bound + 1)) - 1
            assert _triple_mask(x, y, c, bound) == low, (x, y, c, bound)


def test_progression_and_quotient_masks_match_brute_force():
    for bound in (0, 1, 3, 6):
        width = range(-bound, bound + 1)
        for x, r, g in product(range(-7, 8), range(-9, 10), range(1, 9)):
            for lo, hi in ((-bound, bound), (-bound + 1, bound - 2)):
                want = sum(1 << (v + bound) for v in range(lo, hi + 1)
                           if (x * v - r) % g == 0)
                assert _progression(x, r, g, lo, hi, bound) == want
        for p, q, d in product(range(-6, 7), range(-20, 21), range(-5, 6)):
            if d:
                want = sum(1 << (v + bound) for v in width
                           if (p * v - q) % d == 0
                           and -bound <= (p * v - q) // d <= bound)
                assert _quotient_mask(p, q, d, bound) == want, (p, q, d)


def test_search_matches_reference(rng):
    cases = [(Scheme(1, ()), b) for b in (0, 1, 2)]
    cases += [(Scheme(2, (e,)), b) for e in range(-4, 5) for b in (0, 1, 2)]
    for n, count in ((3, 60), (4, 60)):
        for _ in range(count):
            k = n * (n - 1) // 2
            target = Scheme(n, tuple(rng.randint(-4, 4) for _ in range(k)))
            cases.append((target, rng.choice([1, 2])))
    # n = 5: slot (4,5) completes three triples and three quadruples; the
    # sums of a vector scheme within the bound and another one mostly split
    for _ in range(8):
        cases.append((Scheme(5, tuple(rng.randint(-4, 4) for _ in range(10))), 1))
    for _ in range(12):
        target = scheme_sum(random_vector_scheme(rng, 5, 1),
                            random_vector_scheme(rng, 5, 2))
        cases.append((target, 1))
    # the cross-term prune fires where the later coefficients of
    # B(m', s) = mu(s) share a factor: sums scaled by 3 or 5, and the
    # endemic family, which has no split
    for n, bound, count in ((4, 1, 12), (4, 2, 12), (5, 1, 6)):
        for _ in range(count):
            target = scheme_sum(random_vector_scheme(rng, n, 1),
                                random_vector_scheme(rng, n, 2))
            c = rng.choice((3, 5))
            cases.append((Scheme(n, tuple(c * e for e in target.entries)),
                          bound))
    # pair elimination: zero-heavy entries and even multiples at n = 4,
    # bound 3, where slot (1,4) solves for m'_24 and m'_34
    for _ in range(20):
        cases.append((Scheme(4, tuple(rng.choice((0, 0, 0, 2, -2, 4, -6))
                                      for _ in range(6))), 3))
    for _ in range(10):
        target = scheme_sum(random_vector_scheme(rng, 4, 1),
                            random_vector_scheme(rng, 4, 2))
        cases.append((Scheme(4, tuple(2 * e for e in target.entries)), 3))
    # det = m'_12*s_13 - m'_13*s_12 vanishes at every node when
    # s_12 = s_13 = 0, and wherever m'_12 = m'_13 when s_12 = s_13
    for i in range(12):
        e = [rng.randint(-4, 4) for _ in range(6)]
        e[0] = e[1] = 0 if i % 2 else rng.choice((2, 3, -4))
        cases.append((Scheme(4, tuple(e)), 2))
    for _ in range(6):
        target = scheme_sum(random_vector_scheme(rng, 4, 1),
                            random_vector_scheme(rng, 4, 2))
        e = list(target.entries)
        e[1] = e[0]
        cases.append((Scheme(4, tuple(e)), 2))
    # n = 5 with zeros: slot (1,5) eliminates three quadruples at once
    for _ in range(6):
        cases.append((Scheme(5, tuple(rng.choice((0, 0, 1, -1, 2, 3))
                                      for _ in range(10))), 1))
    # the endemic and split series of tools/bench_series.py at small
    # bounds; each split point is a non-torus sum of a vector scheme within
    # the bound and another one, so it splits
    cases += [(endemic_family(p, q), bound)
              for p, q in bench_series.ENDEMIC_PAIRS for bound in range(5)]
    splits = [(new_scheme(n, bench_series.split_entries(n, bound, seed)), bound)
              for n, bounds in ((4, (2, 3)), (5, (1, 2)))
              for bound in bounds for seed in range(5)]
    cases += splits
    wants = [search_generic(target, bound) for target, bound in cases]
    assert None not in wants[-len(splits):]
    # the first pass starts from an empty left-mask cache; the second, in
    # reverse order, reads masks that searches at other bounds and on
    # other schemes left in it
    _left_mask.cache_clear()
    hits = 0
    for (target, bound), want in [*zip(cases, wants),
                                  *zip(cases[::-1], wants[::-1])]:
        out = bounded_decomposition_search(target, bound)
        if out is None:
            assert want is None, (target, bound)
            continue
        hits += 1
        assert out.left.entries == want, (target, bound)
        assert scheme_sum(out.left, out.right) == target
        assert out.left_verdict == decide_torus(out.left)
        assert out.right_verdict == decide_torus(out.right)
        assert out.degenerate == (not any(out.left.entries)
                                  or not any(out.right.entries))
    assert _left_mask.cache_info().hits
    assert hits >= len(cases)  # half the cases, once per pass


def _vectors(rng, n):
    """n curves: Empty, small primitive vectors (so that entries vanish)
    or primitive vectors with coordinates up to 10**15."""
    out = []
    while len(out) < n:
        kind = rng.randrange(4)
        if kind == 0:
            out.append(None)
            continue
        hi = 2 if kind == 1 else 10**15
        p, q = rng.randint(-hi, hi), rng.randint(-hi, hi)
        if gcd(p, q) == 1:
            out.append((p, q))
    return out


def test_cross_term_of_realizable_splits(rng):
    # mu is quadratic and vanishes on both realizable summands, so its
    # polarization B gives B(m', m' + m'') = mu(m' + m''): the linear
    # equation the bounded search prunes by
    zeros = 0
    for n in (4, 5) * 150:
        left, right = dets(_vectors(rng, n)), dets(_vectors(rng, n))
        x = Scheme(n, tuple(left))
        s = Scheme(n, tuple(u + w for u, w in zip(left, right)))
        zeros += 0 in left
        for a, b, c, j in combinations(range(1, n + 1), 4):
            cross = (get(x, a, b) * get(s, c, j) + get(s, a, b) * get(x, c, j)
                     - get(x, a, c) * get(s, b, j) - get(s, a, c) * get(x, b, j)
                     + get(x, a, j) * get(s, b, c) + get(s, a, j) * get(x, b, c))
            assert cross == pluecker_mu(s, a, b, c, j), (left, right)
    assert zeros > 100


def test_realizable_4schemes_lie_on_the_quadric():
    # entries are determinants of vectors, Empty being the zero vector, so
    # the Pluecker relation holds with zero entries too; the bounded search
    # prunes on it in both summands
    realizable = 0
    for e in product(range(-2, 3), repeat=6):
        if decide_torus(Scheme(4, e)).realizable:
            m12, m13, m23, m14, m24, m34 = e
            assert m12 * m34 - m13 * m24 + m14 * m23 == 0, e
            realizable += 1
    assert realizable == 841


def test_search_finds_decomposition():
    s = new_scheme(3, [6, 10, 14])
    out = bounded_decomposition_search(s, 15)
    assert out is not None
    assert scheme_sum(out.left, out.right) == s
    assert out.left_verdict.realizable and out.right_verdict.realizable


def test_search_degenerate_split():
    s = new_scheme(3, [1, 1, 1])
    out = bounded_decomposition_search(s, 0)
    assert out is not None and out.degenerate
    assert out.left == new_scheme(3, [0, 0, 0]) and out.right == s


def test_search_rejects_bad_bounds():
    s = new_scheme(3, [6, 10, 14])
    with pytest.raises(DomainError, match="bound must be >= 0"):
        bounded_decomposition_search(s, -1)
    # 10**11 would need masks of 2*10**11 + 1 bits (25 GB)
    with pytest.raises(DomainError,
                       match=f"bound must be <= {2**20}, got {10**11}"):
        bounded_decomposition_search(s, 10**11)
    for bad in (2.5, 2.0, "2", None):
        with pytest.raises(DomainError, match="bound is "):
            bounded_decomposition_search(s, bad)


def test_search_none_found_small():
    # at bound 5 the endemic scheme already has no split
    assert bounded_decomposition_search(endemic_family(3, 5), 5) is None
