"""Straightforward reference versions of the decision pipeline's fast paths.

Each function re-states a stage the direct way, through the get() accessor
and in the plain stage order, and serves only as an oracle for the
package's dense and certificate-first implementations:

  * reduce_zeros: rescans the current scheme and rebuilds it after every
    removed curve;
  * replay_reduction: the inverse of reduce_zeros, the original scheme
    rebuilt from a ReductionLog through the package's own map from
    original curves to reduced ones (scheme._sources);
  * check_triangle / check_pluecker_full / verify_system: one get() per
    matrix element;
  * kappa_constraints / forbidden_count / witness_r: the base-triple
    formulas for r_2 and r_3, then D_j read through get() for every column
    j >= 4, once per residue tested; kappa_constraints scans every residue
    mod p^(nu+1), projects the admitted set to mod p^nu only after
    checking that it is exactly the p lifts of its projection, and reads
    the closed form off the residue list by walking the p-adic tree;
  * decide_torus: zero reduction, triangle, Pluecker, kappa residues, then
    the witness, each stage run only after the previous one passed; the
    FailedToz totals come from the full toz_report;
  * realizable3: torus realizability of a 3-scheme by its closed form,
    one triple at a time, the oracle of genus._triple_mask;
  * search_generic: the bounded decomposition search as a recursive
    lexicographic scan pruned by sub-triple realizability alone, deciding
    both summands afresh at every leaf;
  * max_clique / max_packing: the packing search on a dense n x n edge
    matrix, every ordered pair tested, and every anchor searched from an
    empty incumbent;
  * pairwise_neighbours: the neighbour lists that farey.max_clique takes,
    from one edge test per unordered pair, for tests that state a graph
    by its edge relation and as the oracle of farey.strip_neighbours.
"""

from functools import lru_cache
from itertools import combinations
from math import gcd

from toruscurves.conditions import (
    FailedPluecker,
    FailedToz,
    FailedTriangle,
    UnresolvableZero,
    Verdict,
    toz_report,
)
from toruscurves.errors import DomainError
from toruscurves.farey import CliqueResult, candidate_vertices
from toruscurves.scheme import (
    DUPLICATE,
    EMPTY,
    ReductionLog,
    ReductionStep,
    Scheme,
    Unresolvable,
    _sources,
    curve,
    dense_rows,
    get,
    lift_system,
)
from toruscurves.intarith import ResidueClass, factorize, valuation
from toruscurves.solver import (
    KappaConstraintSet,
    PrimeConstraint,
    canonical_kappa,
    construct_witness,
    solve_xy,
)


# ---------------------------------------------------------------------------
# Zero reduction, one rebuilt scheme per removed curve
# ---------------------------------------------------------------------------


def _drop_curve(s, k):
    keep = [t for t in range(1, s.n + 1) if t != k]
    out = [get(s, keep[i], keep[j]) for j in range(1, len(keep)) for i in range(j)]
    return Scheme(s.n - 1, tuple(out))


def _row_equal(s, i, j, sign):
    # rows compared on all indices other than i and j
    return all(
        get(s, i, k) == sign * get(s, j, k)
        for k in range(1, s.n + 1)
        if k not in (i, j)
    )


def _row_zero(s, i):
    return all(get(s, i, k) == 0 for k in range(1, s.n + 1) if k != i)


def reduce_zeros(s):
    cur = s
    steps = []
    survivors = list(range(1, s.n + 1))
    while True:
        zero_pairs = sorted(
            (i, j)
            for j in range(2, cur.n + 1)
            for i in range(1, j)
            if get(cur, i, j) == 0
        )
        if not zero_pairs:
            return ReductionLog(tuple(steps), cur, tuple(survivors))
        for i, j in zero_pairs:
            # steps name original curves: survivors maps positions back
            oi, oj = survivors[i - 1], survivors[j - 1]
            if _row_equal(cur, i, j, +1):
                step, drop = ReductionStep(oj, DUPLICATE, of_index=oi, sign=+1), j
            elif _row_equal(cur, i, j, -1):
                step, drop = ReductionStep(oj, DUPLICATE, of_index=oi, sign=-1), j
            elif _row_zero(cur, i):
                step, drop = ReductionStep(oi, EMPTY), i
            elif _row_zero(cur, j):
                step, drop = ReductionStep(oj, EMPTY), j
            else:
                continue
            steps.append(step)
            cur = _drop_curve(cur, drop)
            del survivors[drop - 1]
            break
        else:
            i, j = zero_pairs[0]
            return Unresolvable(
                survivors[i - 1], survivors[j - 1], tuple(steps),
                tuple(survivors),
            )


def replay_reduction(log):
    """Rebuild the original scheme from the log; inverse of reduce_zeros."""
    rows = dense_rows(log.reduced)
    src = _sources(log)
    entries = []
    for j, tj in enumerate(src):
        for ti in src[:j]:
            if ti == 0 or tj == 0:
                entries.append(0)
            else:
                m = rows[abs(ti) - 1][abs(tj) - 1]
                entries.append(m if (ti > 0) == (tj > 0) else -m)
    return Scheme(len(src), tuple(entries))


# ---------------------------------------------------------------------------
# Element-wise conditions
# ---------------------------------------------------------------------------


def check_triangle(s):
    failures = []
    for i, j, k in combinations(range(1, s.n + 1), 3):
        a, b, c = get(s, i, j), get(s, i, k), get(s, j, k)
        if not gcd(a, b) == gcd(a, c) == gcd(b, c):
            failures.append(FailedTriangle(i, j, k))
    return tuple(failures)


def check_pluecker_full(s):
    return tuple(
        FailedPluecker(i, j, k, l)
        for i, j, k, l in combinations(range(1, s.n + 1), 4)
        if get(s, i, j) * get(s, k, l)
        - get(s, i, k) * get(s, j, l)
        + get(s, i, l) * get(s, j, k)
    )


def verify_system(s, system):
    if not all(v.is_primitive() for v in system):
        return False
    for j in range(2, s.n + 1):
        for i in range(1, j):
            u, v = system[i - 1], system[j - 1]
            det = 0 if (u.is_empty or v.is_empty) else u.p * v.q - v.p * u.q
            if det != get(s, i, j):
                return False
    return True


# ---------------------------------------------------------------------------
# Kappa residues, one residue at a time
# ---------------------------------------------------------------------------


def kappa_ok(s, w, p, nu, kappa):
    """Does this kappa residue keep every coordinate workable at prime p?

    r_2, r_3 must be units mod p (p always divides m_12 and m_13).  For
    j >= 4 the combination D_j = y*m_2j - x*m_3j + kappa*m_1j must be
    divisible by p^nu so that r_j = D_j / g_123 is integral, and when p
    also divides m_1j the valuation must be exactly nu so that r_j stays a
    unit (when p does not divide m_1j, p | r_j is harmless for gcd(r_j,
    m_1j) = 1).
    """
    r2 = w.x * w.m23p + kappa * w.m12p
    r3 = w.y * w.m23p + kappa * w.m13p
    if r2 % p == 0 or r3 % p == 0:
        return False
    pe = p**nu
    for j in range(4, s.n + 1):
        d = w.y * get(s, 2, j) - w.x * get(s, 3, j) + kappa * get(s, 1, j)
        if d % pe != 0:
            return False
        if get(s, 1, j) % p == 0 and d % (pe * p) == 0:
            return False
    return True


def scan_lifted(s, w, p, nu):
    """The admitted kappa residues mod p^(nu+1), one kappa_ok per residue."""
    return [k for k in range(p ** (nu + 1)) if kappa_ok(s, w, p, nu, k)]


def project(scanned, p, nu):
    """The residues mod p^nu whose p lifts mod p^(nu+1) are the scanned set.

    Raises AssertionError unless the scanned set is periodic mod p^nu,
    which is what lets the package scan mod p^nu in the first place.
    """
    pe = p**nu
    classes = sorted({k % pe for k in scanned})
    lifts = sorted(c + t * pe for c in classes for t in range(p))
    if lifts != sorted(scanned):
        raise AssertionError(f"admitted set mod {p}^{nu + 1} is not periodic")
    return tuple(classes)


def closed_form(allowed, p, nu):
    """The PrimeConstraint of a sorted residue list mod p^nu: the smallest
    p-adic class holding it, and the maximal classes inside that one
    holding none of it, found by visiting every class of the tree."""
    pe = p**nu
    if not allowed:
        return PrimeConstraint(p, nu, pe, None, (), 0)
    m = 1
    while m < pe and len({k % (m * p) for k in allowed}) == 1:
        m *= p
    members = set(allowed)
    holes = []

    def walk(mod, res):
        inside = sum(1 for k in range(res, pe, mod) if k in members)
        if inside == 0:
            holes.append((mod, res))
        elif inside < pe // mod:
            for d in range(p):
                walk(mod * p, res + mod * d)

    walk(m, allowed[0] % m)
    excluded = tuple(ResidueClass(hm, hr) for hm, hr in sorted(holes))
    return PrimeConstraint(
        p, nu, pe, ResidueClass(m, allowed[0] % m), excluded, len(allowed)
    )


def kappa_constraints(s):
    w = solve_xy(s)
    if w.g123 == 1:
        return KappaConstraintSet(())
    per = []
    for p, nu in factorize(w.g123).pairs:
        allowed = project(scan_lifted(s, w, p, nu), p, nu)
        per.append(closed_form(allowed, p, nu))
    return KappaConstraintSet(tuple(per))


def forbidden_count(s, g_l):
    w = solve_xy(s)
    if w.g123 == 1:
        return 0
    nu = valuation(w.g123, g_l)
    return sum(1 for k in range(g_l) if not kappa_ok(s, w, g_l, nu, k))


def witness_r(s, kappa):
    """(r_2, ..., r_n) for kappa, None where r_j is not an integer."""
    w = solve_xy(s)
    rs = [w.x * w.m23p + kappa * w.m12p, w.y * w.m23p + kappa * w.m13p]
    for j in range(4, s.n + 1):
        d = w.y * get(s, 2, j) - w.x * get(s, 3, j) + kappa * get(s, 1, j)
        rs.append(d // w.g123 if d % w.g123 == 0 else None)
    return tuple(rs)


# ---------------------------------------------------------------------------
# Stage-order decision
# ---------------------------------------------------------------------------


def decide_torus(s):
    red = reduce_zeros(s)
    if isinstance(red, Unresolvable):
        return Verdict(False, (UnresolvableZero(red.i, red.j),), None, False, None)
    r = red.reduced

    def realizable(system, kappa, cons=None):
        if not verify_system(s, system):
            raise AssertionError("reference witness fails verification")
        used_empty = any(v.is_empty for v in system)
        return Verdict(True, (), system, used_empty, red, kappa=kappa,
                       constraints=cons)

    if r.n == 1:
        return realizable(lift_system(red, (curve(1, 0),)), None)
    if r.n == 2:
        m = get(r, 1, 2)
        rep = 0 if abs(m) == 1 else 1
        return realizable(lift_system(red, (curve(1, 0), curve(rep, m))), rep)

    def mapped(f):
        return type(f)(*(red.survivors[t - 1] for t in f))

    for check in (check_triangle, check_pluecker_full):
        failures = check(r)
        if failures:
            return Verdict(False, tuple(map(mapped, failures)), None, False, red)
    cons = kappa_constraints(r)
    empty = {pc.prime for pc in cons.per_prime if not pc.allowed}
    toz_fail = tuple(
        FailedToz(p, total)
        for p, total in toz_report(r).checked_primes
        if p in empty
    )
    if toz_fail:
        return Verdict(False, toz_fail, None, False, red, constraints=cons)
    kappa = canonical_kappa(cons)
    witness = construct_witness(r, kappa)
    return realizable(lift_system(red, witness.system), kappa, cons)


# ---------------------------------------------------------------------------
# Bounded decomposition search, triple pruning only
# ---------------------------------------------------------------------------


def realizable3(x: int, y: int, z: int) -> bool:
    """Torus realizability of the 3-scheme (x; y, z), zeros included.

    Closed form: a zero entry resolves iff the opposite two entries agree
    up to sign or one of them vanishes; otherwise the triangle condition
    must hold and, when 2 divides the common gcd, the 2-valuations must
    not all coincide.
    """
    if z == 0:
        return x == y or x == -y or x == 0 or y == 0
    if y == 0:
        return x == z or x == -z or x == 0 or z == 0
    if x == 0:
        return y == z or y == -z or y == 0 or z == 0
    g1, g2, g3 = gcd(x, y), gcd(x, z), gcd(y, z)
    if not g1 == g2 == g3:
        return False
    if g1 % 2:
        return True
    return not (_v2(x) == _v2(y) == _v2(z))


def _v2(n: int) -> int:
    n = abs(n)
    return (n & -n).bit_length() - 1


def search_generic(s, bound):
    """Depth-first lexicographic scan with triple pruning, any n.

    Returns the entries of the first left summand m' in [-bound, bound]
    with m' and s - m' both torus-realizable, or None.
    """
    k = len(s.entries)
    # triples become checkable at the slot where their last entry lands
    pairs = [(i, j) for j in range(2, s.n + 1) for i in range(1, j)]
    slot = {pr: t for t, pr in enumerate(pairs)}
    completed = [[] for _ in range(k)]
    for j in range(3, s.n + 1):
        for i2 in range(2, j):
            for i1 in range(1, i2):
                slots = (slot[(i1, i2)], slot[(i1, j)], slot[(i2, j)])
                completed[max(slots)].append(slots)
    r3 = lru_cache(maxsize=None)(realizable3)
    target = s.entries
    chosen = [0] * k

    def dfs(t: int):
        if t == k:
            left = Scheme(s.n, tuple(chosen))
            right = Scheme(s.n, tuple(x - y for x, y in zip(target, chosen)))
            if decide_torus(left).realizable and decide_torus(right).realizable:
                return tuple(chosen)
            return None
        for v in range(-bound, bound + 1):
            chosen[t] = v
            ok = True
            for (t1, t2, t3) in completed[t]:
                if not r3(chosen[t1], chosen[t2], chosen[t3]) or not r3(
                    target[t1] - chosen[t1],
                    target[t2] - chosen[t2],
                    target[t3] - chosen[t3],
                ):
                    ok = False
                    break
            if ok:
                hit = dfs(t + 1)
                if hit is not None:
                    return hit
        return None

    return dfs(0)


# ---------------------------------------------------------------------------
# Farey packing, dense edge matrix and no incumbent across anchors
# ---------------------------------------------------------------------------


def _edge(u, v, d: int) -> bool:
    det = abs(u[0] * v[1] - v[0] * u[1])
    return 1 <= det <= d


def pairwise_neighbours(vertices, edge_fn) -> list:
    """Neighbour lists in the form farey.max_clique takes, from a symmetric
    edge_fn called once per unordered pair of distinct vertices."""
    nbrs = [[] for _ in vertices]
    for i, j in combinations(range(len(vertices)), 2):
        if edge_fn(vertices[i], vertices[j]):
            nbrs[i].append(j)
            nbrs[j].append(i)
    return nbrs


def max_clique(vertices, edge_fn) -> tuple:
    """Deterministic branch-and-bound maximum clique (greedy-coloring
    bound, degree-descending order, lexicographic tie-break)."""
    verts0 = sorted(set(vertices))
    n = len(verts0)
    if n == 0:
        return ()
    edges = [
        [edge_fn(verts0[i], verts0[j]) for j in range(n)] for i in range(n)
    ]
    degree = [sum(row) for row in edges]
    order = sorted(range(n), key=lambda i: (-degree[i], verts0[i]))
    verts = [verts0[i] for i in order]
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if edges[order[i]][order[j]]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i

    best: list = []

    def color_sort(cand_mask: int):
        # greedy coloring; returns vertices with color bounds, colors ascending
        uncolored = cand_mask
        colored = []
        color = 0
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                v = (avail & -avail).bit_length() - 1
                colored.append((v, color))
                avail &= ~adj[v]
                uncolored &= ~(1 << v)
                avail &= uncolored
        return colored

    def expand(cand_mask: int, current: list):
        nonlocal best
        colored = color_sort(cand_mask)
        for v, bound in reversed(colored):
            if len(current) + bound <= len(best):
                return
            current.append(v)
            sub = cand_mask & adj[v]
            if sub:
                expand(sub, current)
            elif len(current) > len(best):
                best = current.copy()
            current.pop()
            cand_mask &= ~(1 << v)

    expand((1 << n) - 1, [])
    return tuple(verts[i] for i in sorted(best))


def _anchor_best(d, anchor):
    verts = [
        v
        for v in candidate_vertices(d, anchor)
        if v not in ((1, 0), anchor)
    ]
    clique = max_clique(verts, lambda u, v: _edge(u, v, d))
    witness = ((1, 0), anchor) + clique
    return len(witness), witness


def max_packing(d: int) -> CliqueResult:
    """Largest set of distinct classes with pairwise intersection in [1, d].

    Maximizes 2 + max-clique over all anchors, each searched independently.
    """
    if d < 1:
        raise DomainError(f"need d >= 1, got {d}")
    anchors = [
        (p0, q0)
        for q0 in range(1, d + 1)
        for p0 in range(q0)
        if gcd(p0, q0) == 1
    ]
    results = [_anchor_best(d, a) for a in anchors]
    best_size, best_witness = 2, ((0, 1), (1, 0))
    for size, witness in results:
        if size > best_size:
            best_size, best_witness = size, witness
    witness = tuple(sorted(best_witness))
    for i in range(len(witness)):
        for j in range(i + 1, len(witness)):
            if not _edge(witness[i], witness[j], d):
                raise AssertionError("internal fault: invalid packing witness")
    return CliqueResult(best_size, witness, d)
