import random
import sys
from itertools import combinations
from math import gcd

import pytest

import reference
from toruscurves import (
    DomainError,
    candidate_vertices,
    max_clique,
    max_packing,
)
from toruscurves import farey
from toruscurves.intarith import next_prime


def det(u, v):
    return u[0] * v[1] - v[0] * u[1]


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

    nbrs = reference.pairwise_neighbours(verts, adj)
    one_each = range(len(verts))
    assert set(max_clique(verts, nbrs, classes=one_each)) == {"a", "b", "c"}
    assert max_clique([], [], classes=range(0)) == ()
    assert max_clique(["z"], [[]], classes=range(1)) == ("z",)
    with pytest.raises(DomainError, match="3 neighbour lists for 4 vertices"):
        max_clique(verts, [[1], [0], []], classes=one_each)


def test_max_clique_floor_matches_reference():
    # with one class per vertex and any floor below the clique number the
    # search returns the reference clique; from the clique number up it
    # returns ()
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 12)
        verts = rng.sample(range(100), n)
        density = rng.random()
        edges = {
            frozenset(e) for e in combinations(verts, 2) if rng.random() < density
        }

        def adj(u, v):
            return frozenset((u, v)) in edges

        nbrs = reference.pairwise_neighbours(verts, adj)
        ref = reference.max_clique(verts, adj)
        omega = len(ref)
        one_each = range(n)
        for floor in range(omega + 2):
            got = max_clique(verts, nbrs, floor=floor, classes=one_each)
            assert got == (ref if floor < omega else ()), (verts, edges, floor)
        assert max_clique(verts, nbrs, classes=one_each) == ref


def _random_classes(rng, verts, edges):
    """A random partition of verts into independent sets, as labels."""
    classes = {}
    for v in rng.sample(verts, len(verts)):
        free = sorted(set(classes.values())
                      - {classes[u] for u in classes if frozenset((u, v)) in edges})
        classes[v] = (rng.choice(free) if free and rng.random() < 0.7
                      else len(set(classes.values())))
    return [classes[v] for v in verts]


def test_max_clique_point_classes():
    # with any partition into independent sets as classes, at any floor,
    # the search returns the reference clique below the clique number and
    # () from it up
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randint(1, 12)
        verts = rng.sample(range(100), n)
        density = rng.random()
        edges = {
            frozenset(e) for e in combinations(verts, 2) if rng.random() < density
        }

        def adj(u, v):
            return frozenset((u, v)) in edges

        nbrs = reference.pairwise_neighbours(verts, adj)
        ref = reference.max_clique(verts, adj)
        classes = _random_classes(rng, verts, edges)
        omega = len(ref)
        for floor in range(omega + 2):
            got = max_clique(verts, nbrs, floor=floor, classes=classes)
            assert got == (ref if floor < omega else ()), (verts, edges, floor)


def test_max_clique_classes_preconditions():
    verts = ["a", "b", "c"]
    nbrs = [[1], [0, 2], [1]]
    assert (max_clique(verts, nbrs, classes=[0, 1, 0])
            == max_clique(verts, nbrs, classes=range(3)))
    with pytest.raises(DomainError, match="share the class 0"):
        max_clique(verts, nbrs, classes=[0, 0, 1])
    with pytest.raises(DomainError, match="2 classes for 3 vertices"):
        max_clique(verts, nbrs, classes=[0, 1])


max_clique_expand = next(c for c in farey.max_clique.__code__.co_consts
                         if getattr(c, "co_name", None) == "expand")


def _expanded(fn):
    """(fn(), one (clique size, classes left, best size) triple per call of
    max_clique's nested expand in it, read as the call starts)."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is max_clique_expand:
            f = frame.f_locals
            calls.append((len(f["current"]), len(f["live"]), f["best_size"]))

    sys.setprofile(profile)
    try:
        out = fn()
    finally:
        sys.setprofile(None)
    return out, calls


def test_max_clique_expands_only_branches_that_can_win():
    # every branch the search enters can beat the incumbent by its class
    # count: its clique plus the classes that meet its candidates exceeds
    # the best size so far, on random graphs and on the (0, 1) grid at
    # d = 19, where the class bound is what proves 21 candidates optimal
    rng = random.Random(13)
    graphs = []
    for _ in range(100):
        verts = rng.sample(range(100), rng.randint(1, 14))
        density = rng.random()
        edges = {frozenset(e) for e in combinations(verts, 2)
                 if rng.random() < density}
        nbrs = reference.pairwise_neighbours(
            verts, lambda u, v: frozenset((u, v)) in edges)
        graphs.append((verts, nbrs, _random_classes(rng, verts, edges)))
    verts = [v for v in candidate_vertices(19, (0, 1))
             if v not in ((1, 0), (0, 1))]
    graphs.append((verts, farey.strip_neighbours(verts, 19, (0, 1)),
                   [x * pow(y, -1, 23) % 23 for x, y in verts]))
    calls = []
    for verts, nbrs, classes in graphs:
        calls += _expanded(lambda: max_clique(verts, nbrs, classes=classes))[1]
    assert calls and all(size + left > best for size, left, best in calls)


def test_max_clique_stops_at_the_class_count():
    # the crown graph on u_1..u_k, v_1..v_k (u_i ~ v_j for i != j) has
    # clique number 2, but the greedy colouring in rank order pairs u_i
    # with v_i and needs k colours, so colour bounds alone would leave a
    # branch per vertex of colour 3 and up.  With the classes {u_i} and
    # {v_i}, the first clique found has a member in both, so the search
    # stops: the root and one child
    k = 12
    verts = [(i, side) for i in range(k) for side in "uv"]
    nbrs = [[j for j, (i2, s2) in enumerate(verts) if s2 != s and i2 != i]
            for i, s in verts]
    classes = [s for _, s in verts]
    got, calls = _expanded(lambda: max_clique(verts, nbrs, classes=classes))
    assert len(got) == 2 and len(calls) == 2


def test_strip_neighbours_match_pairwise():
    # every anchor at d <= 12; at d = 13..40, seeded random anchors, at
    # least three and until the graphs include pairs with |det| exactly d
    # (an edge) and d + 1 (not), as they do at every d >= 2.  Most sampled
    # grids are small, so the full grid of (0, 1) (798 classes at d = 25)
    # leads the sample at d = 13, 19 and 25
    rng = random.Random(17)
    for d in range(1, 41):
        anchors = [(p0, q0) for q0 in range(1, d + 1) for p0 in range(q0)
                   if gcd(p0, q0) == 1]
        if d > 12:
            rng.shuffle(anchors)
            if d in (13, 19, 25):
                anchors.insert(0, (0, 1))
        seen = set()

        def edge(u, v):
            seen.add(abs(det(u, v)))
            return reference._edge(u, v, d)

        for k, anchor in enumerate(anchors):
            if d > 12 and k >= 3 and {d, d + 1} <= seen:
                break
            verts = [v for v in candidate_vertices(d, anchor)
                     if v not in ((1, 0), anchor)]
            pairwise = list(map(set, reference.pairwise_neighbours(verts, edge)))
            banded = farey.strip_neighbours(verts, d, anchor)
            assert list(map(set, banded)) == pairwise, (d, anchor)
        assert d == 1 or {d, d + 1} <= seen, d


def test_strip_neighbours_band_cutoff_at_equality():
    # the band lemma allows an edge from u = (a, b) into row y only when
    # y*|a*q0 - p0*b| <= d*(q0 + b).  Equality is reached, with an edge,
    # at d = 5 by (5, 1)-(5, 2) of anchor (0, 1): 2*5 = 5*(1 + 1); each
    # such pair of the anchors at d <= 12 is found by the banded scan
    verts = [(5, 1), (5, 2)]
    assert farey.strip_neighbours(verts, 5, (0, 1)) == [[1], [0]]
    tight = 0
    for d in range(1, 13):
        for q0 in range(1, d + 1):
            for p0 in range(q0):
                if gcd(p0, q0) != 1:
                    continue
                verts = [v for v in candidate_vertices(d, (p0, q0))
                         if v not in ((1, 0), (p0, q0))]
                nbrs = farey.strip_neighbours(verts, d, (p0, q0))
                for i, (a, b) in enumerate(verts):
                    for j, (x, y) in enumerate(verts):
                        if (y > b and 1 <= abs(a * y - b * x) <= d
                                and y * abs(a * q0 - p0 * b) == d * (q0 + b)):
                            tight += 1
                            assert j in nbrs[i] and i in nbrs[j], (d, (a, b), (x, y))
    assert tight > 0


def test_strip_neighbours_band_preconditions():
    with pytest.raises(DomainError, match="outside the band"):
        farey.strip_neighbours([(0, 1), (6, 1)], 5, (0, 1))
    with pytest.raises(DomainError, match="need q >= 1"):
        farey.strip_neighbours([(0, 1)], 5, (1, 0))


def test_strip_neighbours_at_the_bound():
    # d = 5: |det| is exactly 5 for (0, 1)-(5, 1) in row 1 and for
    # (1, 2)-(4, 3) in row 3, both edges; it is 6 for (0, 1)-(6, 1) and for
    # (1, 2)-(5, 4) in row 4, neither an edge.  Every vertex lies in the
    # band of the anchor (1, 1), |x - y| <= 5
    verts = [(0, 1), (5, 1), (6, 1), (1, 2), (4, 3), (5, 4)]
    nbrs = [set(nb) for nb in farey.strip_neighbours(verts, 5, (1, 1))]
    assert nbrs == [{1, 3, 4, 5}, {0, 2}, {1}, {0, 4}, {0, 3, 5}, {0, 4}]
    pairwise = reference.pairwise_neighbours(
        verts, lambda u, v: reference._edge(u, v, 5))
    assert nbrs == [set(nb) for nb in pairwise]


@pytest.mark.parametrize("verts,d,match", [
    ([(1, 0)], 3, "need y >= 1"),
    ([(1, -2)], 3, "need y >= 1"),
    ([(2, 4)], 3, "primitive"),
    ([(0, 1), (1, 2), (0, 1)], 3, "repeated"),
    ([(0, 1)], 0, "need d >= 1"),
], ids=["y=0", "y<0", "not-primitive", "repeated", "d=0"])
def test_strip_neighbours_preconditions(verts, d, match):
    with pytest.raises(DomainError, match=match):
        farey.strip_neighbours(verts, d, (0, 1))


def _counted_max_clique(monkeypatch):
    """Replace farey.max_clique by a wrapper; returns its list of calls."""
    searched = []

    def counted(*args, **kwargs):
        searched.append(args[0])
        return max_clique(*args, **kwargs)

    monkeypatch.setattr(farey, "max_clique", counted)
    return searched


def test_max_packing_matches_reference(monkeypatch):
    refs = {}
    for d in range(1, 31):
        ref = refs[d] = reference.max_packing(d)
        got = max_packing(d)
        assert (got.size, got.witness) == (ref.size, ref.witness), d
    # at d = 9 the first of the 28 anchors already reaches p + 1 = 12, so
    # the search tries no other
    searched = _counted_max_clique(monkeypatch)
    ref = refs[9]
    got = max_packing(9)
    assert (got.size, got.witness) == (ref.size, ref.witness)
    assert len(searched) == 1


def _is_prime(m):
    return m > 1 and all(m % k for k in range(2, int(m**0.5) + 1))


# max_packing(d).size for d = 1, 2, ..., 30
PACKING_SIZES = (
    3, 4, 6, 6, 8, 8, 10, 12, 12, 12, 14, 14, 16, 18, 18,
    18, 20, 20, 23, 24, 24, 24, 27, 30, 30, 30, 30, 30, 32, 32,
)


def test_packing_prime_bound():
    # p is the smallest prime above d.  A primitive class is nonzero mod p,
    # so it reduces to a point of the projective line over F_p, which has
    # p + 1 points.  Two members of a packing have determinant in [1, d],
    # nonzero mod p, so they reduce to different points: a packing has at
    # most p + 1 classes (Agol's bound, in Aougab-Biringer-Gaster).  The
    # search stops at p + 1, so only the exact sizes can show a wrong bound;
    # the size falls below p + 1 only at d = 7, 13, 19 and 23.
    # Each witness is checked against that lemma too.
    short = []
    for d, size in enumerate(PACKING_SIZES, start=1):
        p = next(m for m in range(d + 1, 2 * d + 2) if _is_prime(m))
        result = max_packing(d)
        assert result.size == size, d
        points = [None if b % p == 0 else a * pow(b, -1, p) % p
                  for a, b in result.witness]
        assert len(set(points)) == len(points), d
        assert size <= p + 1, d
        if size < p + 1:
            short.append(d)
        if _is_prime(d + 1):
            assert size == p + 1, d
    assert short == [7, 13, 19, 23]


@pytest.mark.parametrize(
    "d,calls,anchors", [(17, 1, 1), (19, 1, 61), (23, 2, 87), (25, 1, 1)]
)
def test_max_packing_searches_few_anchors(monkeypatch, d, calls, anchors):
    # the first anchor reaches p + 1 at d = 17 and 25, so no other anchor's
    # candidates are listed; at d = 19 (61 anchors with 2*p0 <= q0, of
    # 120) the candidates of every later anchor cover too few points to
    # beat the first; at d = 23 (87 of 172 anchors) one later anchor beats
    # it
    searched = _counted_max_clique(monkeypatch)
    listed = []

    def counted_candidates(d, anchor):
        listed.append(anchor)
        return candidate_vertices(d, anchor)

    monkeypatch.setattr(farey, "candidate_vertices", counted_candidates)
    assert max_packing(d).size == PACKING_SIZES[d - 1]
    assert len(searched) == calls
    assert len(listed) == anchors


def test_mirror_anchors_have_equal_clique_numbers():
    # phi(x, y) = (y - x, y) maps the candidates of (p0, q0) onto those of
    # (q0 - p0, q0), edges onto edges
    for d in range(1, 15):
        p = next_prime(d)
        for q0 in range(2, d + 1):
            for p0 in range(1, q0):
                if gcd(p0, q0) == 1 and 2 * p0 < q0:
                    # None: no clique beyond (1, 0) and the anchor
                    got, mirror = (farey._anchor_best(d, p, a, 0) or (2,)
                                   for a in ((p0, q0), (q0 - p0, q0)))
                    assert got[0] == mirror[0], (d, p0, q0)


def test_max_packing_tries_one_anchor_per_mirror_pair(monkeypatch):
    # d = 19 stays below p + 1, so every anchor with 2*p0 <= q0 is tried,
    # in order, and none with 2*p0 > q0
    tried = []
    inner = farey._anchor_best

    def counted(d, p, anchor, floor):
        tried.append(anchor)
        return inner(d, p, anchor, floor)

    monkeypatch.setattr(farey, "_anchor_best", counted)
    assert max_packing(19).size == PACKING_SIZES[18]
    assert tried == [(p0, q0) for q0 in range(1, 20) for p0 in range(q0)
                     if gcd(p0, q0) == 1 and 2 * p0 <= q0]
    for d in range(1, 31):
        tried.clear()
        max_packing(d)
        assert all(2 * p0 <= q0 for p0, q0 in tried), d


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
        w = [(m[0][0] * p + m[0][1] * q, m[1][0] * p + m[1][1] * q)
             for p, q in w]
        # the unoriented class: y > 0, or y = 0 and x > 0
        w = [(x, y) if y > 0 or (y == 0 and x > 0) else (-x, -y)
             for x, y in w]
        assert len(set(w)) == result.size
        for i in range(len(w)):
            for j in range(i + 1, len(w)):
                assert 1 <= abs(det(w[i], w[j])) <= 2


@pytest.mark.parametrize("k,expected", [(1, 3), (2, 2), (3, 3), (5, 3)])
def test_exact_intersection_cliques(k, expected):
    # pairwise |det| exactly k: at most 3 classes for odd k, 2 for even k.
    # normalizing one member to (1,0) pins the rest to (p, +-k), so the
    # grid below is exhaustive.
    verts = [(1, 0)] + [
        (p, k) for p in range(-2 * k, 2 * k + 1) if gcd(abs(p), k) == 1
    ]
    nbrs = reference.pairwise_neighbours(verts, lambda u, v: abs(det(u, v)) == k)
    clique = max_clique(verts, nbrs, classes=range(len(verts)))
    assert len(clique) == expected


def test_bad_inputs():
    with pytest.raises(DomainError):
        max_packing(0)
    # d goes through operator.index: a float is refused, a bool is 1
    with pytest.raises(DomainError, match=r"^d is 2\.5, not an integer$"):
        max_packing(2.5)
    assert type(max_packing(True).d) is int
    for jobs in (0, -3):
        with pytest.raises(DomainError, match="need jobs >= 1"):
            max_packing(3, jobs=jobs)
