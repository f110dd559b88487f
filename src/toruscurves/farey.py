"""Maximal packings of curve classes on the torus with bounded pairwise
intersection.

Unoriented primitive classes (p, q) are canonicalized to q > 0 (or (1, 0));
two classes meet |p1*q2 - p2*q1| times.  A maximum clique under the edge
relation 1 <= |det| <= d is found by normalizing the clique to contain
(1, 0) with its minimal-positive-q member reduced to an anchor (p0, q0),
0 <= p0 < q0 <= d, which confines all further members to a finite grid:
the candidates (x, y), q0 <= y <= d, in the band |x*q0 - p0*y| <= d.

Each anchor's grid becomes one graph, read off lattice strips rather than
pairwise tests: the neighbours of a candidate (a, b), b >= 1, in grid row
y are the classes (x, y) with |a*y - b*x| <= d, an interval of x found by
bisection in the row's sorted x values (strip_neighbours).  That is
O(rows + degree) work per candidate, O(edges + rows * classes) per graph,
in place of one test per unordered pair.  max_clique keeps each class's
neighbours as a bitmask over the (-degree, class) ranks.  The search
passes its best size so far to the next anchor as a floor, so an anchor
whose candidates cover too few points of P^1(F_p) (below), or whose
clique, cannot beat it returns nothing.

The band lemma.  Let u = (a, b) and v = (x, y) be candidates of the
anchor (p0, q0) with 1 <= |det(u, v)| <= d.  By the triangle inequality
on slopes,

    |a*q0 - p0*b| / (b*q0) = |a/b - p0/q0|
        <= |a/b - x/y| + |x/y - p0/q0| <= d/(b*y) + d/(y*q0),

and multiplying by b*y*q0 gives y*|a*q0 - p0*b| <= d*(q0 + b).  The left
factor |a*q0 - p0*b| is nonzero for every candidate, whose determinant
with the anchor lies in [1, d], so u has no neighbour in any row above
d*(q0 + b) / |a*q0 - p0*b|, and strip_neighbours stops its scan there.

The mirror lemma.  phi(x, y) = (y - x, y) is in GL(2, Z): it preserves
|det| and the second coordinate, sends (1, 0) to (-1, 0), the same
unoriented class, and sends the band of (p0, q0) onto the band of
(q0 - p0, q0), since |(y - x)*q0 - (q0 - p0)*y| = |x*q0 - p0*y|.  So it
maps the candidates of the anchor (p0, q0) onto those of
(q0 - p0, q0), edges onto edges, and both anchors have the same clique
number.  max_packing tries the anchors in order of q0, then p0, and keeps
an anchor's packing only when it beats the best so far strictly; of a
mirror pair with p0 != q0 - p0 the one with 2*p0 > q0 comes second and
cannot, so it is skipped.  That halves the anchors without changing any
result.

The projective-line bound.  Let p be the smallest prime above d.  A
primitive (a, b) is nonzero mod p, so it reduces to a point of the
projective line P^1(F_p), which has p + 1 points.  Two members u, v of a
packing have 1 <= |det(u, v)| <= d < p, so det(u, v) is nonzero mod p and u
and v reduce to different points.  Hence a packing has at most p + 1
classes (Agol's bound, as given by Aougab, Biringer and Gaster).  Under the
anchor normalization (1, 0) is the point infinity, and every candidate
(p', q') has 1 <= q' <= d < p, so its point is p' * q'^-1 mod p; a candidate
shares no point with (1, 0) or with the anchor, since its determinants with
both lie in [1, d].  Candidates with one point are pairwise non-adjacent,
so a clique among any set of candidates has at most as many members as
the distinct points that set covers; for all of an anchor's candidates
that is at most p - 1.  The bound is used four times:

1. max_packing stops at the first anchor whose packing has p + 1 classes,
   since a later anchor must beat the running best strictly;
2. an anchor whose candidates cover at most floor points is skipped before
   its graph is built;
3. max_clique requires vertex classes, and the points are the ones it
   is given; with no more points than its floor it returns at once;
4. in every node of that search, a branch whose clique plus the points
   its candidates cover cannot beat the incumbent is cut before its
   colouring; once the incumbent has a member for every point, that cuts
   every branch left.  The cut only drops branches without a larger
   clique, and the order of the branches is the greedy colouring's, so
   the witness is the first maximum clique in that order.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import gcd
from typing import NamedTuple

from .errors import DomainError, type_strict
from .intarith import next_prime


@type_strict
class CliqueResult(NamedTuple):
    size: int
    witness: tuple  # tuple[(p, q), ...]
    d: int


def candidate_vertices(d: int, anchor) -> list:
    """Every class that can join a clique normalized to {(1,0), anchor}.

    Members are primitive (p', q') with anchor_q <= q' <= d and
    |p'*anchor_q - anchor_p*q'| <= d; the grid is finite since q' <= d
    bounds the (1,0)-edge and the anchor edge bounds p'.
    """
    p0, q0 = anchor
    if d < 1:
        raise DomainError(f"need d >= 1, got {d}")
    if not 0 <= p0 < q0 <= d or gcd(p0, q0) != 1:
        raise DomainError(f"bad anchor {anchor}: need 0 <= p < q <= d, primitive")
    out = {(1, 0), (p0, q0)}
    for q in range(q0, d + 1):
        # |p*q0 - p0*q| <= d
        lo = (p0 * q - d + q0 - 1) // q0  # ceil((p0*q - d)/q0)
        hi = (p0 * q + d) // q0
        for p in range(lo, hi + 1):
            if gcd(p, q) == 1:
                out.add((p, q))
    return sorted(out)


def strip_neighbours(vertices, d: int, anchor) -> list:
    """Neighbour lists of the packing graph with bound d on vertices:
    entry i lists the indices j with 1 <= |det(vertices[i], vertices[j])|
    <= d, once each.

    Every vertex must be a distinct primitive (x, y) with y >= 1; anything
    else is a DomainError.  The vertices are grouped into rows by y, each
    row sorted by x.  The neighbours of u = (a, b) in row y are the x in
    [ceil((a*y - d)/b), floor((a*y + d)/b)], one pair of bisections and a
    slice per row; in row b itself that is |x - a| <= d // b.  Each pair is
    found once, from its member in the lower row (from the smaller x within
    a row), and entered in both lists.  Two distinct primitive classes with
    positive second coordinates are never parallel, so every pair found has
    det != 0.

    The anchor (p0, q0), q0 >= 1, is required, and every vertex must lie
    in its band |x*q0 - p0*y| <= d (else a DomainError), as the candidates
    of that anchor do.  Then u has no neighbour in any row y with
    y*|a*q0 - p0*b| > d*(q0 + b) (the band lemma in the module docstring),
    and the scan of u's higher rows stops at the first such row.
    """
    if d < 1:
        raise DomainError(f"need d >= 1, got {d}")
    p0, q0 = anchor
    if q0 < 1:
        raise DomainError(f"bad anchor {anchor}: need q >= 1")
    rows: dict = {}
    for i, (x, y) in enumerate(vertices):
        if y < 1 or gcd(x, y) != 1:
            raise DomainError(f"bad packing vertex {(x, y)}: need y >= 1, primitive")
        if not -d <= x * q0 - p0 * y <= d:
            raise DomainError(f"packing vertex {(x, y)} lies outside the band "
                              f"of anchor {anchor}")
        rows.setdefault(y, []).append((x, i))
    strips = []
    for y in sorted(rows):
        row = sorted(rows[y])
        xs = [x for x, _ in row]
        for k in range(1, len(xs)):
            if xs[k - 1] == xs[k]:
                raise DomainError(f"packing vertex {(xs[k], y)} is repeated")
        strips.append((y, xs, [i for _, i in row]))
    nbrs: list = [[] for _ in vertices]
    for s, (b, xs_b, idx_b) in enumerate(strips):
        higher = strips[s + 1:]
        reach = d * (q0 + b)
        for k, a in enumerate(xs_b):
            found = idx_b[k + 1:bisect_right(xs_b, a + d // b)]
            off = abs(a * q0 - p0 * b)
            for y, xs, idx in higher:
                if y * off > reach:
                    break
                ay = a * y
                lo = bisect_left(xs, -((d - ay) // b))  # ceil((ay - d) / b)
                hi = bisect_right(xs, (ay + d) // b)
                if lo < hi:
                    found += idx[lo:hi]
            i = idx_b[k]
            nbrs[i] += found
            for j in found:
                nbrs[j].append(i)
    return nbrs


def max_clique(vertices, neighbours, floor: int = 0, *, classes) -> tuple:
    """Deterministic branch-and-bound maximum clique (greedy-coloring
    bound, degree-descending order, lexicographic tie-break).

    The vertices must be distinct; neighbours[i] lists, once each, the
    indices of the vertices adjacent to vertices[i], and the relation must
    be symmetric and irreflexive (strip_neighbours builds the packing
    graph).  The vertices are ranked by (-degree, vertex) and each one's
    neighbours become a bitmask over the ranks.  The search starts from an
    incumbent of size floor and returns () when no clique has more than
    floor vertices.  Branches are ordered by the candidate masks alone and
    cut only when they cannot beat the incumbent, so for any floor below
    the clique number the result is the clique returned with floor=0.

    classes (required) labels each vertex, classes[i] for vertices[i],
    so that vertices with equal labels are pairwise non-adjacent, as
    range(n) does; a label shared by two adjacent vertices is a
    DomainError.  A clique has at most one member per label, so a branch
    whose clique plus the labels that meet its candidates cannot beat the
    incumbent is cut too, before its colouring.  Each branch finds those
    labels among its parent's, so the list shrinks with the depth.  Once
    the incumbent has a member for every label, every branch left is cut,
    and with no more labels than floor nothing is searched.  This cut too
    drops only branches that hold no larger clique, so no witness moves.
    """
    n = len(vertices)
    if len(neighbours) != n:
        raise DomainError(f"{len(neighbours)} neighbour lists for {n} vertices")
    order = sorted(range(n), key=lambda i: (-len(neighbours[i]), vertices[i]))
    bit = [0] * n
    for r, i in enumerate(order):
        bit[i] = 1 << r
    verts = [vertices[i] for i in order]
    adj = [sum(map(bit.__getitem__, neighbours[i])) for i in order]
    if len(classes) != n:
        raise DomainError(f"{len(classes)} classes for {n} vertices")
    members: dict = {}  # label -> mask of its vertices' ranks
    for i in order:
        c = classes[i]
        members[c] = members.get(c, 0) | bit[i]
    for r, i in enumerate(order):
        if adj[r] & members[classes[i]]:
            raise DomainError(f"adjacent vertices {verts[r]} share the "
                              f"class {classes[i]!r}")
    if len(members) <= floor:
        return ()

    best: list = []
    best_size = floor

    def color_sort(cand_mask: int):
        # greedy coloring; returns vertices with color bounds, colors ascending
        uncolored = cand_mask
        colored = []
        color = 0
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                colored.append((v, color))
                uncolored ^= low
                avail ^= low
                avail &= ~adj[v]
        return colored

    def expand(cand_mask: int, live, current: list) -> None:
        # live: the class masks that meet cand_mask
        nonlocal best, best_size
        colored = color_sort(cand_mask)
        size = len(current)
        for v, bound in reversed(colored):
            if size + bound <= best_size:
                return
            current.append(v)
            sub = cand_mask & adj[v]
            if not sub:
                if size >= best_size:
                    best = current.copy()
                    best_size = size + 1
            else:
                sub_live = [m for m in live if m & sub]
                if size + 1 + len(sub_live) > best_size:
                    expand(sub, sub_live, current)
            current.pop()
            cand_mask ^= 1 << v

    expand((1 << n) - 1, list(members.values()), [])
    return tuple(verts[i] for i in sorted(best))


def _anchor_best(d: int, p: int, anchor, floor: int):
    """(size, witness) of the largest packing through (1, 0) and the anchor,
    or None when none has more than floor + 2 members.

    p is the smallest prime above d.  Each candidate (x, y) is labelled by
    its point x * y^-1 mod p of P^1(F_p), with one inverse per grid row.  A
    clique of candidates has at most one member per point (module
    docstring), so an anchor whose candidates cover no more than floor
    points is not searched, and the points are max_clique's classes.
    """
    ends = ((1, 0), anchor)
    verts = [v for v in candidate_vertices(d, anchor) if v not in ends]
    inverse = {y: pow(y, -1, p) for y in range(anchor[1], d + 1)}
    points = [x * inverse[y] % p for x, y in verts]
    if len(set(points)) <= floor:
        return None
    clique = max_clique(verts, strip_neighbours(verts, d, anchor),
                        floor=floor, classes=points)
    if not clique:
        return None
    witness = ends + clique
    return len(witness), witness


def max_packing(d: int, jobs: int = 1) -> CliqueResult:
    """Largest set of distinct classes with pairwise intersection in [1, d].

    Maximizes 2 + max-clique over the anchors (p0, q0) with 2*p0 <= q0,
    one of each mirror pair, since the other has the same clique number
    and comes later (module docstring).  The anchors run in order of q0,
    then p0, each searched only for a clique larger than the best so far,
    and the search stops at the first packing of p + 1 classes, p the
    smallest prime above d (no packing is larger).

    jobs has no effect; it is accepted for older callers, and a value below
    1 is still a DomainError.
    """
    if d < 1:
        raise DomainError(f"need d >= 1, got {d}")
    if jobs < 1:
        raise DomainError(f"need jobs >= 1, got {jobs}")
    # of each mirror pair (p0, q0), (q0 - p0, q0) only the first, 2*p0 <= q0
    anchors = [
        (p0, q0)
        for q0 in range(1, d + 1)
        for p0 in range(q0 // 2 + 1)
        if gcd(p0, q0) == 1
    ]
    p = next_prime(d)
    best_size, best_witness = 2, ((0, 1), (1, 0))
    # the running best is each anchor's floor, so any result beats it
    for anchor in anchors:
        res = _anchor_best(d, p, anchor, best_size - 2)
        if res is not None:
            best_size, best_witness = res
            if best_size == p + 1:
                break
    witness = tuple(sorted(best_witness))
    for i, (a, b) in enumerate(witness):
        for x, y in witness[i + 1:]:
            if not 0 < abs(a * y - b * x) <= d:
                raise AssertionError("internal fault: invalid packing witness")
    return CliqueResult(best_size, witness, d)
