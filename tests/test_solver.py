import json
import sys
from itertools import islice
from math import gcd

import pytest

from toruscurves import (
    ConstraintViolation,
    DomainError,
    InvalidShape,
    construct_witness,
    curve,
    decide_torus,
    enumerate_orbits,
    factorize,
    forbidden_count,
    kappa_constraints,
    new_scheme,
    oracle_realizable,
    solve_pair_orbits,
    solve_xy,
    verify_system,
)
import reference
from conftest import dets, random_vector_scheme, sl2_act
from toruscurves.intarith import ResidueClass
from toruscurves.solver import KappaConstraintSet, canonical_kappa


def test_solve_xy_examples():
    w = solve_xy(new_scheme(3, [2, 2, 4]))
    assert w.x * w.m13p - w.y * w.m12p == 1
    assert (w.g123, w.m12p, w.m13p, w.m23p) == (2, 1, 1, 2)
    w = solve_xy(new_scheme(3, [4, 6, 10]))
    assert (w.x, w.y) == (1, 1)
    w = solve_xy(new_scheme(3, [1, 1, 1]))
    assert w.x * w.m13p - w.y * w.m12p == 1 and w.g123 == 1


def test_kappa_constraints_examples():
    cons = kappa_constraints(new_scheme(3, [2, 2, 4]))
    (pc,) = cons.per_prime
    assert (pc.prime, pc.modulus, pc.count, tuple(pc.allowed)) == (2, 2, 1, (1,))
    assert (pc.ball, pc.excluded) == (ResidueClass(2, 1), ())

    cons = kappa_constraints(new_scheme(3, [1, 1, 1]))
    assert cons.per_prime == () and cons.unconstrained and cons.feasible()
    # unconstrained is read off per_prime, not a second field to agree with it
    assert not kappa_constraints(new_scheme(3, [2, 2, 4])).unconstrained
    with pytest.raises(TypeError):
        KappaConstraintSet((), unconstrained=False)

    cons = kappa_constraints(new_scheme(3, [4, 6, 10]))
    (pc,) = cons.per_prime
    assert tuple(pc.allowed) == (0,)  # kappa even
    assert 0 in pc.allowed and 1 not in pc.allowed and 2 not in pc.allowed

    # 7^4 || g_123: kappa avoids the classes 1 and 3 mod 7
    s = new_scheme(3, [2 * 7**4, 3 * 7**4, 5 * 7**4])
    (pc,) = kappa_constraints(s).per_prime
    assert (pc.ball, pc.excluded) == (
        ResidueClass(1, 0), (ResidueClass(7, 1), ResidueClass(7, 3))
    )
    assert pc.count == len(pc.allowed) == 5 * 7**3
    assert list(islice(pc.allowed, 6)) == [0, 2, 4, 5, 6, 7]
    assert pc.allowed[-1] == 7**4 - 1 and pc.allowed[5 * 7**3 - 3] == 7**4 - 3


def test_kappa_classes_are_periodic_lifts(rng):
    # The residues mod p^(nu+1) admitted by the one-residue-at-a-time
    # reference scan are exactly the p lifts of the classes mod p^nu that
    # kappa_constraints stores; reference.project raises otherwise.
    checked = deep = 0
    for _ in range(300):
        n = rng.randint(3, 7)
        g = rng.choice([2, 3, 4, 6, 8, 9, 12, 18, 25, 27, 36])
        s = new_scheme(n, [g * e for e in random_vector_scheme(rng, n).entries])
        if 0 in s.entries:
            continue
        w = solve_xy(s)
        for pc in kappa_constraints(s).per_prime:
            p, nu = pc.prime, pc.nu
            assert pc.modulus == p**nu
            scanned = reference.scan_lifted(s, w, p, nu)
            assert reference.project(scanned, p, nu) == tuple(pc.allowed)
            checked += 1
            deep += nu >= 2
    assert checked >= 300 and deep >= 50


def test_construct_witness_goldens():
    s = new_scheme(3, [2, 2, 4])
    assert construct_witness(s, 3).system == (curve(1, 0), curve(3, 2), curve(1, 2))
    assert construct_witness(s, 1).system == (curve(1, 0), curve(1, 2), curve(-1, 2))
    with pytest.raises(ConstraintViolation):
        construct_witness(s, 2)

    s = new_scheme(3, [4, 6, 10])
    w = construct_witness(s, 0)
    assert w.system == (curve(1, 0), curve(5, 4), curve(5, 6))
    # residues forced by the base-triple inverses
    assert w.r[0] % 2 == pow(3, -1, 2) * 5 % 2
    assert w.r[1] % 3 == -pow(2, -1, 3) * 5 % 3

    s = new_scheme(4, [1, 1, 1, 2, 1, -1])
    w = construct_witness(s, 0)
    assert verify_system(s, w.system)


def test_witness_residue_invariants(rng):
    # r_2 = (m'_13)^-1 m'_23 mod m'_12 and r_3 = -(m'_12)^-1 m'_23 mod m'_13
    checked = 0
    for _ in range(300):
        s = random_vector_scheme(rng, 3)
        if any(e == 0 for e in s.entries):
            continue
        v = decide_torus(s)
        assert v.realizable
        w = solve_xy(s)
        r2, r3 = v.witness[1].p, v.witness[2].p
        if abs(w.m12p) > 1:
            inv = pow(w.m13p, -1, abs(w.m12p))
            assert r2 % abs(w.m12p) == inv * w.m23p % abs(w.m12p)
        if abs(w.m13p) > 1:
            inv = pow(w.m12p, -1, abs(w.m13p))
            assert r3 % abs(w.m13p) == -inv * w.m23p % abs(w.m13p)
        checked += 1
    assert checked > 50


def test_out_of_base_gcd_primes(rng):
    # primes of m_1j outside g_123 never divide r_j
    from toruscurves import factorize

    for _ in range(200):
        n = rng.choice([3, 4, 5])
        s = random_vector_scheme(rng, n)
        if any(e == 0 for e in s.entries):
            continue
        v = decide_torus(s)
        w = solve_xy(s)
        for j in range(2, n + 1):
            rj = v.witness[j - 1].p
            m1j = v.witness[j - 1].q
            for p in factorize(abs(m1j)).primes():
                if w.g123 % p != 0:
                    assert rj % p != 0


def test_solve_pair_orbits():
    assert [w.kappa for w in solve_pair_orbits(6)] == [1, 5]
    assert [w.system for w in solve_pair_orbits(1)] == [(curve(1, 0), curve(0, 1))]
    assert len(solve_pair_orbits(7)) == 6
    assert len(solve_pair_orbits(-6)) == 2
    for w in solve_pair_orbits(-5):
        assert w.system[1].q == -5 and gcd(w.kappa, 5) == 1
    with pytest.raises(DomainError):
        solve_pair_orbits(0)


def test_enumerate_orbits_counts():
    assert len(enumerate_orbits(new_scheme(2, [6]))) == 2
    assert len(enumerate_orbits(new_scheme(3, [2, 2, 4]))) == 1
    assert len(enumerate_orbits(new_scheme(3, [1, 1, 1]))) == 1
    with pytest.raises(DomainError):
        enumerate_orbits(new_scheme(3, [6, 10, 14]))


def _scaled_triples(rng, count):
    # (a,b,c)*g with a, b, c pairwise coprime, so that g_123 = g, and g
    # with at least two primes, one of them squared
    for _ in range(count):
        while True:
            a, b, c = (rng.randint(1, 7) * rng.choice((-1, 1)) for _ in range(3))
            if gcd(a, b) == gcd(a, c) == gcd(b, c) == 1:
                break
        g = rng.choice([12, 18, 20, 36, 45, 50, 60, 63, 90, 150])
        yield new_scheme(3, [a * g, b * g, c * g])


def test_enumerate_orbits_vs_oracle(rng):
    schemes = [random_vector_scheme(rng, rng.choice([2, 3, 4]), qmax=5)
               for _ in range(200)]
    multi = 0
    for s in schemes + list(_scaled_triples(rng, 60)):
        if any(e == 0 for e in s.entries):
            continue
        count = oracle_realizable(s).orbit_count
        if count == 0:
            with pytest.raises(DomainError):
                enumerate_orbits(s)
            continue
        reps = enumerate_orbits(s)
        assert len(reps) == count
        if s.n >= 3:
            g123 = solve_xy(s).g123
            assert reps[0].kappa == canonical_kappa(kappa_constraints(s)) < g123
            multi += len(factorize(g123).primes()) >= 2
        for w in reps:
            assert verify_system(s, w.system)
        # orbit representatives are pairwise inequivalent under the
        # stabilizer shift r_j -> r_j + t*m_1j
        r2s = {w.system[1].p % abs(w.system[1].q) for w in reps}
        assert len(r2s) == len(reps)
    assert multi >= 20


def test_enumerate_orbits_limit():
    reps = enumerate_orbits(new_scheme(2, [30]), limit=3)
    assert len(reps) == 3
    # phi(10^12) classes: the listing stops at the limit
    reps = enumerate_orbits(new_scheme(2, [10**12]), limit=3)
    assert [w.kappa for w in reps] == [1, 3, 7]
    # a limit below 1 is refused, not read as a slice bound
    for n, entries in ((2, [5]), (3, [2, 2, 4])):
        for limit in (0, -1, -3):
            with pytest.raises(DomainError):
                enumerate_orbits(new_scheme(n, entries), limit=limit)


def test_kappa_translation_gives_stabilizer_shift():
    s = new_scheme(3, [2, 2, 4])
    w0 = construct_witness(s, 1)
    w1 = construct_witness(s, 1 + 2)  # g_123 = 2
    for a, b in zip(w0.system[1:], w1.system[1:]):
        assert b.p == a.p + a.q and b.q == a.q


def test_forbidden_count():
    assert forbidden_count(new_scheme(3, [2, 2, 4]), 2) == 1
    assert forbidden_count(new_scheme(3, [1, 1, 1]), 2) == 0  # no constrained primes
    with pytest.raises(DomainError):
        forbidden_count(new_scheme(3, [2, 2, 4]), 3)
    with pytest.raises(DomainError):
        forbidden_count(new_scheme(4, [1, 1, 1, 2, 1, -1]), 2)
    # g_l must be prime, even when it divides g_123
    with pytest.raises(DomainError):
        forbidden_count(new_scheme(3, [6, 6, 12]), 6)
    with pytest.raises(DomainError):
        forbidden_count(new_scheme(3, [12, 12, 24]), 4)


def test_forbidden_count_matches_corollary(rng):
    from toruscurves import factorize

    checked = 0
    for _ in range(400):
        s = random_vector_scheme(rng, 3, qmax=8)
        if any(e == 0 for e in s.entries):
            continue
        w = solve_xy(s)
        if w.g123 == 1:
            continue
        for g_l in factorize(w.g123).primes():
            expected = 1 if (w.m12p * w.m13p * w.m23p) % g_l == 0 else 2
            assert forbidden_count(s, g_l) == expected
            checked += 1
    assert checked > 30


def test_enumeration_cap():
    # kappa classes have no enumeration cap: moduli p^nu past the 10^7
    # that an exhaustive residue scan once refused decide like small ones
    (pc,) = kappa_constraints(new_scheme(3, [10007] * 3)).per_prime
    assert pc.modulus == 10007 and pc.count == 10005
    for g in (10007**2, 101**4):
        s = new_scheme(3, [2 * g, 3 * g, 5 * g])
        v = decide_torus(s)
        assert v.realizable and verify_system(s, v.witness)
        (pc,) = v.constraints.per_prime
        assert pc.modulus == g and pc.count == g - 2 * (g // pc.prime)
    s = new_scheme(3, [1890, 1890, 41580])  # 2-valuations 1,1,2
    v = decide_torus(s)
    assert v.realizable and verify_system(s, v.witness)


def test_kappa_classes_past_sys_maxsize():
    # g_123 = 2^89 - 1 is a prime; the verdict, the exact count, the
    # forbidden classes and the last residue come without listing residues
    g = 2**89 - 1
    s = new_scheme(3, [2 * g, 3 * g, 5 * g])
    assert forbidden_count(s, g) == 2
    v = decide_torus(s)
    assert v.realizable and verify_system(s, v.witness)
    (pc,) = v.constraints.per_prime
    assert pc.count == g - 2 > sys.maxsize
    assert pc.allowed[-1] == g - 1 and v.kappa == pc.allowed[0]
    with pytest.raises(OverflowError):
        len(pc.allowed)
    w = enumerate_orbits(s, limit=3)
    assert [o.kappa for o in w] == list(islice(pc.allowed, 3))
    assert all(verify_system(s, o.system) for o in w)


def test_sl2_act():
    sys0 = (curve(1, 0), curve(0, 1))
    assert sl2_act(((1, 0), (0, 1)), sys0) == sys0
    rotated = sl2_act(((0, -1), (1, 0)), sys0)
    assert rotated == (curve(0, 1), curve(-1, 0))
    with pytest.raises(ValueError):
        sl2_act(((1, 1), (1, 1)), sys0)


def test_sl2_invariance(rng):
    s = new_scheme(3, [2, 2, 4])
    v = decide_torus(s)
    mats = [((1, 1), (0, 1)), ((0, -1), (1, 0)), ((2, 1), (1, 1))]
    for m in mats:
        assert verify_system(s, sl2_act(m, v.witness))
    bad = (curve(2, 0), curve(1, 1), curve(0, 1))
    for m in mats:
        assert not verify_system(new_scheme(3, [1, 1, 1]), sl2_act(m, bad))


def test_verify_system():
    s = new_scheme(3, [1, 1, 1])
    assert verify_system(s, (curve(1, 0), curve(1, 1), curve(0, 1)))
    assert not verify_system(s, (curve(2, 0), curve(1, 1), curve(0, 1)))
    assert not verify_system(
        new_scheme(3, [2, 2, 4]), (curve(1, 0), curve(3, 2), curve(1, 4))
    )
    with pytest.raises(InvalidShape):
        verify_system(s, (curve(1, 0),))


def test_one_kappa_scan_per_decision(monkeypatch, tmp_path, capsys):
    from toruscurves import cli, conditions, solver

    calls = []
    scan = solver.kappa_constraints

    def counted(*args, **kwargs):
        calls.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(solver, "kappa_constraints", counted)
    monkeypatch.setattr(conditions, "kappa_constraints", counted)
    # vectors (1,0), (1,30), (7,30), (11,60): g_123 = 30, four orbits
    s = new_scheme(4, [30, 30, -180, 60, -270, 90])
    v = decide_torus(s)
    assert v.realizable and len(calls) == 1

    calls.clear()
    reps = enumerate_orbits(s, limit=5)
    assert len(reps) > 1 and len(calls) == 1

    # solve lists its orbits from the decision's kappa classes
    calls.clear()
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"n": s.n, "entries": list(s.entries)}))
    assert cli.run(["solve", str(path), "--orbits", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [o["kappa"] for o in doc["orbit_witnesses"]] == \
        [w.kappa for w in reps]
    assert len(calls) == 1


def test_one_verify_per_decision(monkeypatch, rng):
    from toruscurves import conditions, solver

    # determinant passes, each (n, entries, system), and verify_system calls
    passes, calls = [], []
    mismatches, check = solver._mismatches, solver.verify_system

    def counted_pass(sc, system):
        passes.append((sc.n, sc.entries, tuple(system)))
        return mismatches(sc, system)

    def counted(sc, system):
        calls.append((sc.n, sc.entries, tuple(system)))
        return check(sc, system)

    monkeypatch.setattr(solver, "_mismatches", counted_pass)
    monkeypatch.setattr(solver, "verify_system", counted)
    monkeypatch.setattr(conditions, "verify_system", counted)
    # pairwise non-parallel vectors: nothing to reduce, and the pass that
    # would list the witness's missed pairs verifies it
    s = random_vector_scheme(rng, 28, qmax=12, distinct=True)
    v = decide_torus(s)
    assert v.realizable and not v.reduction.steps
    assert passes == [(s.n, s.entries, v.witness)] and calls == []

    # an Empty curve reduces to n = 4: one pass on the reduced scheme, and
    # the lifted witness is verified on the original, once
    passes.clear()
    s = new_scheme(5, dets([(1, 0), (1, 30), None, (7, 30), (11, 60)]))
    v = decide_torus(s)
    red = v.reduction.reduced
    assert v.realizable and red.n == 4
    assert calls == [(s.n, s.entries, v.witness)]
    assert passes == [(red.n, red.entries, passes[0][2]), calls[0]]

    # a 2-scheme takes its first orbit, verified once when lifted
    passes.clear()
    calls.clear()
    assert decide_torus(new_scheme(2, [6])).realizable
    assert len(calls) == 1 and passes == calls
