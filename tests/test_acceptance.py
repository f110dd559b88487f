"""Acceptance suite.

Each test covers one numbered criterion, runs it at its stated tolerance,
and prints one PASS/FAIL line (visible with pytest -s or in the captured
output of a failing run).
"""

import random
import time
from fractions import Fraction

from toruscurves import (
    FailedToz,
    decide_torus,
    bounded_decomposition_search,
    decompose_3scheme,
    endemic_family,
    enumerate_orbits,
    genus_upper_bound,
    max_packing,
    new_scheme,
    oracle_realizable,
    permute,
    scheme_sum,
    toz_report,
    verify_system,
)
from toruscurves.genus import Decomposition
from conftest import (
    phi,
    random_nonzero_scheme,
    random_permutation,
    random_vector_scheme,
)

REALIZABLE_WITNESSES = []  # (scheme, witness) pairs collected across criteria


def _report(num, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"criterion {num:>2}: {tag}  {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _collect(s, verdict):
    if verdict.realizable:
        REALIZABLE_WITNESSES.append((s, verdict.witness))


def test_criterion_01_toz_fixture_table():
    # The displayed matrices in column order, with their valuation totals.
    # Two displayed totals (marked *) are misprints in the source table:
    # the unscaled 6-scheme and its x3 multiple cannot differ in the j=3
    # column (all base valuations shift by one), and direct enumeration of
    # the forbidden kappa residues confirms the values asserted here.
    t0 = time.monotonic()
    fixtures = [
        (new_scheme(4, [1, 1, 1, 2, 1, -1]),
         {2: Fraction(0), 3: Fraction(0)}),
        (new_scheme(4, [3, 3, 3, 6, 3, -3]), {3: Fraction(3)}),
        (new_scheme(4, [9, 9, 9, 6, 3, -3]), {3: Fraction(7, 3)}),
        (new_scheme(6, [3, 3, 6, 1, 4, 2, -1, 2, 4, 2, 1, 1, -1, -1, -1]),
         {3: Fraction(2), 5: Fraction(0)}),  # * displayed as 1
        (new_scheme(6, [9, 9, 18, 3, 12, 6, -3, 6, 12, 6, 3, 3, -3, -3, -3]),
         {3: Fraction(3)}),
        (new_scheme(6, [15, 15, 30, 5, 20, 10, -5, 10, 20, 10, 5, 5, -5, -5, -5]),
         {5: Fraction(5)}),
        (new_scheme(6, [15, 20, 25, 5, 10, 5, -15, 15, 5, 5, -10, -5, 10, 5, -5]),
         {5: Fraction(4)}),
        (new_scheme(6, [9, 12, 15, 3, 6, 3, -9, 9, 3, 3, -6, -3, 6, 3, -3]),
         {3: Fraction(3)}),  # * displayed as 5
    ]
    for s, expected in fixtures:
        report = toz_report(s)
        for p, want in expected.items():
            got = report.total_for(p)
            assert got == want, (s, p, got, want)
    # realizability claims for the same table (skipping the bold-25 matrix,
    # whose printed entries fail the Pluecker relation, making its stated
    # verdict unreproducible from the displayed numbers)
    realizable = [True, False, True, True, False, False, None, False]
    for (s, _), want in zip(fixtures, realizable):
        if want is not None:
            assert decide_torus(s).realizable == want, s
    elapsed = time.monotonic() - t0
    _report(1, elapsed < 1.0,
            f"8 fixtures exact (two table misprints corrected), {elapsed:.3f}s")


def test_criterion_02_decision_vs_oracle():
    rng = random.Random(20240)
    t0 = time.monotonic()
    n_checked = 0
    for _ in range(10_000):
        n = rng.choice([3, 4, 5])
        s = random_nonzero_scheme(rng, n, hi=12)
        v = decide_torus(s)
        o = oracle_realizable(s)
        assert v.realizable == o.realizable, s
        _collect(s, v)
        n_checked += 1
    elapsed = time.monotonic() - t0
    _report(2, n_checked == 10_000 and elapsed < 60,
            f"{n_checked} schemes agree, {elapsed:.1f}s")


def test_criterion_03_paper_triple():
    s = new_scheme(3, [6, 10, 14])
    v = decide_torus(s)
    assert not v.realizable
    assert v.reasons == (FailedToz(2, Fraction(2)),)
    out = decompose_3scheme(s)
    assert isinstance(out, Decomposition)
    assert scheme_sum(out.left, out.right) == s
    assert out.left_verdict.realizable and out.right_verdict.realizable
    _collect(out.left, out.left_verdict)
    _collect(out.right, out.right_verdict)
    _report(3, True,
            f"(6;10,14) fails at p=2; split {list(out.left.entries)} + "
            f"{list(out.right.entries)}")


def test_criterion_04_orbit_counts():
    t0 = time.monotonic()
    for m in range(1, 201):
        s = new_scheme(2, [m])
        count = oracle_realizable(s).orbit_count
        assert len(enumerate_orbits(s)) == phi(m) == count, m
    elapsed = time.monotonic() - t0
    _report(4, elapsed < 10, f"m in [1,200] all equal phi(m), {elapsed:.1f}s")


def test_criterion_05_packings():
    t0 = time.monotonic()
    r1 = max_packing(1)
    r7 = max_packing(7)
    elapsed = time.monotonic() - t0
    for r in (r1, r7):
        w = r.witness
        assert len(set(w)) == r.size
        for i in range(len(w)):
            for j in range(i + 1, len(w)):
                d = abs(w[i][0] * w[j][1] - w[j][0] * w[i][1])
                assert 1 <= d <= r.d
    _report(5, r1.size == 3 and r7.size == 10 and elapsed < 300,
            f"max packing sizes {r1.size} and {r7.size}, {elapsed:.1f}s")


def test_criterion_06_permutation_invariance():
    rng = random.Random(31337)
    count = 0
    for _ in range(1000):
        n = rng.choice([3, 4, 5])
        s = (random_vector_scheme(rng, n)
             if rng.random() < 0.45 else random_nonzero_scheme(rng, n))
        base = decide_torus(s)
        sig = random_permutation(rng, n)
        assert decide_torus(permute(s, sig)).realizable == base.realizable, \
            (s, sig)
        _collect(s, base)
        count += 1
    _report(6, count == 1000, f"{count} scheme/permutation pairs invariant")


def test_criterion_07_endemic_family():
    t0 = time.monotonic()
    odd_primes = [3, 5, 7, 11, 13]
    pairs = [(p, q) for p in odd_primes for q in odd_primes if p != q]
    for p, q in pairs:
        assert not decide_torus(endemic_family(p, q)).realizable, (p, q)
    hit = bounded_decomposition_search(endemic_family(3, 5), 30)
    elapsed = time.monotonic() - t0
    _report(7, hit is None and elapsed < 600,
            f"{len(pairs)} family members fail; no split at bound 30, "
            f"{elapsed:.1f}s")


def test_criterion_08_witness_soundness():
    from toruscurves import factorize, solve_xy

    if not REALIZABLE_WITNESSES:
        # standalone invocation: build a sample instead of relying on
        # witnesses collected by the earlier criteria
        rng = random.Random(808)
        while len(REALIZABLE_WITNESSES) < 200:
            s = random_nonzero_scheme(rng, rng.choice([3, 4, 5]))
            _collect(s, decide_torus(s))
    for s, witness in REALIZABLE_WITNESSES:
        assert verify_system(s, witness)
        for v in witness:
            assert v.is_primitive()
    # out-of-base-gcd primes never divide the matching r_j
    rng = random.Random(55)
    checked = 0
    for _ in range(300):
        s = random_vector_scheme(rng, rng.choice([3, 4, 5]))
        if any(e == 0 for e in s.entries):
            continue
        v = decide_torus(s)
        assert v.realizable
        g = solve_xy(s).g123
        for j in range(2, s.n + 1):
            rj, m1j = v.witness[j - 1].p, v.witness[j - 1].q
            for p in factorize(abs(m1j)).primes():
                if g % p:
                    assert rj % p, (s, j, p)
        checked += 1
    _report(8, checked > 100,
            f"{len(REALIZABLE_WITNESSES)} collected + {checked} vector-scheme "
            "witnesses verified")


def test_criterion_09_all_equal_schemes():
    for k in (1, 3, 5, 7, 9):
        assert decide_torus(new_scheme(3, [k, k, k])).realizable, k
    for k in (2, 4, 6, 8):
        assert not decide_torus(new_scheme(3, [k, k, k])).realizable, k
    for k in [k for k in range(-9, 10) if k]:
        assert not decide_torus(new_scheme(4, [k] * 6)).realizable, k
    _report(9, True, "3-schemes odd-only; all-equal 4-schemes never")


def test_criterion_10_genus_bounds():
    ok = genus_upper_bound(4) == 8 and genus_upper_bound(2) == 1
    _report(10, ok, "g<=8 for n=4, g<=1 for n=2")
