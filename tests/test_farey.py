import multiprocessing
import random
from itertools import combinations
from math import comb

import pytest

import reference
from toruscurves import (
    DomainError,
    candidate_vertices,
    max_clique,
    max_packing,
)
from toruscurves import farey
from toruscurves.farey import canon_slope


def det(u, v):
    return u[0] * v[1] - v[0] * u[1]


def test_canon_slope():
    assert canon_slope(1, -2) == (-1, 2)
    assert canon_slope(-1, 0) == (1, 0)
    assert canon_slope(3, 4) == (3, 4)
    with pytest.raises(DomainError):
        canon_slope(0, 0)


def test_candidate_vertices_small():
    verts = candidate_vertices(1, (0, 1))
    assert set(verts) == {(1, 0), (0, 1), (1, 1), (-1, 1)}
    assert (1, 2) in candidate_vertices(2, (0, 1))
    with pytest.raises(DomainError):
        candidate_vertices(1, (1, 1))
    with pytest.raises(DomainError):
        candidate_vertices(1, (2, 4))


def test_candidate_vertices_respect_anchor_edge():
    for anchor in ((0, 1), (1, 2), (2, 3)):
        for v in candidate_vertices(3, anchor):
            if v in ((1, 0), anchor):
                continue
            assert 1 <= abs(det(v, anchor)) <= 3
            assert 1 <= v[1] <= 3


def test_max_clique_known_graphs():
    # a triangle plus a pendant vertex
    verts = ["a", "b", "c", "d"]
    edges = {("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")}

    def adj(u, v):
        return (u, v) in edges or (v, u) in edges

    assert set(max_clique(verts, adj)) == {"a", "b", "c"}
    assert max_clique([], adj) == ()
    assert max_clique(["z"], lambda u, v: False) == ("z",)


def test_max_clique_floor_matches_reference():
    # with any floor below the clique number the search returns the
    # reference clique; from the clique number up it returns ()
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 12)
        verts = rng.sample(range(100), n)
        density = rng.random()
        edges = {
            frozenset(e) for e in combinations(verts, 2) if rng.random() < density
        }
        calls = []

        def adj(u, v):
            calls.append(frozenset((u, v)))
            return frozenset((u, v)) in edges

        ref = reference.max_clique(verts, lambda u, v: frozenset((u, v)) in edges)
        omega = len(ref)
        for floor in range(omega + 2):
            calls.clear()
            got = max_clique(verts, adj, floor=floor)
            assert got == (ref if floor < omega else ()), (verts, edges, floor)
            # one test per unordered pair of distinct vertices
            assert len(calls) == len(set(calls)) == comb(n, 2)
            assert all(len(c) == 2 for c in calls)
        assert max_clique(verts, adj) == ref


def test_max_packing_matches_reference(monkeypatch):
    refs = {}
    for d in range(1, 17):
        ref = refs[d] = reference.max_packing(d)
        got = max_packing(d)
        assert (got.size, got.witness) == (ref.size, ref.witness), d
    # at d = 9 the serial path carries its best across the 28 anchors and
    # searches only some of them; a real 2-worker pool searches them all
    searched = []

    def counted(*args, **kwargs):
        searched.append(args[0])
        return max_clique(*args, **kwargs)

    monkeypatch.setattr(farey, "max_clique", counted)
    ref = refs[9]
    got = max_packing(9)
    assert (got.size, got.witness) == (ref.size, ref.witness)
    assert 0 < len(searched) < 28
    monkeypatch.setattr(farey, "max_clique", max_clique)
    monkeypatch.setattr(farey.os, "cpu_count", lambda: 2)
    got = max_packing(9, jobs=2)
    assert (got.size, got.witness) == (ref.size, ref.witness)


def _is_prime(m):
    return m > 1 and all(m % k for k in range(2, int(m**0.5) + 1))


def test_packing_prime_bound():
    # Aougab-Biringer-Gaster: a packing with pairwise intersection in
    # [1, d] has at most p + 1 classes, p the smallest prime above d, and
    # reaches p + 1 when d + 1 is prime
    for d in range(1, 21):
        p = next(m for m in range(d + 1, 2 * d + 2) if _is_prime(m))
        size = max_packing(d).size
        assert size <= p + 1, d
        if _is_prime(d + 1):
            assert size == p + 1, d


def test_max_packing_small_values():
    assert max_packing(1).size == 3
    assert max_packing(2).size == 4
    assert max_packing(3).size == 6


def test_packing_witness_is_valid():
    for d in (1, 2, 3, 4):
        result = max_packing(d)
        w = result.witness
        assert len(set(w)) == result.size
        for i in range(len(w)):
            for j in range(i + 1, len(w)):
                assert 1 <= abs(det(w[i], w[j])) <= d


def test_packing_monotone():
    sizes = [max_packing(d).size for d in range(1, 5)]
    assert sizes == sorted(sizes)


def test_sl2_renormalization_preserves_clique_size():
    rng = random.Random(7)
    result = max_packing(2)
    mats = [((1, 1), (0, 1)), ((0, -1), (1, 0)), ((1, 0), (1, 1))]
    w = result.witness
    for _ in range(5):
        m = rng.choice(mats)
        w = [
            canon_slope(m[0][0] * p + m[0][1] * q, m[1][0] * p + m[1][1] * q)
            for p, q in w
        ]
        assert len(set(w)) == result.size
        for i in range(len(w)):
            for j in range(i + 1, len(w)):
                assert 1 <= abs(det(w[i], w[j])) <= 2


@pytest.mark.parametrize("k,expected", [(1, 3), (2, 2), (3, 3), (5, 3)])
def test_exact_intersection_cliques(k, expected):
    # pairwise |det| exactly k: at most 3 classes for odd k, 2 for even k.
    # normalizing one member to (1,0) pins the rest to (p, +-k), so the
    # grid below is exhaustive.
    from math import gcd

    verts = [(1, 0)] + [
        (p, k) for p in range(-2 * k, 2 * k + 1) if gcd(abs(p), k) == 1
    ]
    clique = max_clique(verts, lambda u, v: abs(det(u, v)) == k)
    assert len(clique) == expected


def test_max_packing_jobs_matches_serial():
    a = max_packing(3, jobs=1)
    b = max_packing(3, jobs=2)
    assert (a.size, a.witness) == (b.size, b.witness)


def test_bad_inputs():
    with pytest.raises(DomainError):
        max_packing(0)
    for jobs in (0, -3):
        with pytest.raises(DomainError, match="need jobs >= 1"):
            max_packing(3, jobs=jobs)


def test_max_packing_pool_size(monkeypatch):
    sizes = []

    class FakePool:
        # records the requested size and maps in-process
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    monkeypatch.setattr(farey.os, "cpu_count", lambda: 64)
    # d = 1 has the single anchor (0, 1): no pool at all
    assert max_packing(1, jobs=64).size == 3
    assert sizes == []
    # d = 3 has the four anchors (0,1), (1,2), (1,3), (2,3)
    res = max_packing(3, jobs=64)
    assert sizes == [4]
    serial = max_packing(3, jobs=1)
    assert (res.size, res.witness) == (serial.size, serial.witness)
    max_packing(3, jobs=2)
    assert sizes == [4, 2]
    # the CPU count caps the workers too: d = 7 has 18 anchors
    monkeypatch.setattr(farey.os, "cpu_count", lambda: 3)
    res = max_packing(7, jobs=5000)
    assert sizes == [4, 2, 3]
    # an unknown CPU count means one worker, in-process
    monkeypatch.setattr(farey.os, "cpu_count", lambda: None)
    assert max_packing(7, jobs=5000) == res
    assert sizes == [4, 2, 3]
