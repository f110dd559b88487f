"""Properties of systems whose coordinates run up to 10^30.

Curves 1 and 2 are (1,0) and (0,1), so m_12 = 1, g_123 = 1 and nothing is
factored; curves 3..n are huge primitive vectors, repeats of earlier
curves (possibly reversed) and Empty curves, so most examples give zero
reduction work to do.  The refutation test perturbs one entry of such a
scheme, with coordinates up to 10^15 so that entries run up to 10^30.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stdout
from math import gcd

import reference

from hypothesis import assume, given, settings, strategies as st

from toruscurves import (
    EMPTY_CURVE,
    check_pluecker_full,
    curve,
    decide_torus,
    new_scheme,
    permute,
    reduce_zeros,
    verify_system,
)
from toruscurves.cli import run
from toruscurves.scheme import dense_rows
from conftest import dets, sl2_act

BIG = 10**30
_COORD = st.integers(-BIG, BIG)


@st.composite
def _primitive(draw, coord=_COORD):
    p, q = draw(coord), draw(coord)
    if p == q == 0:
        p = 1
    g = gcd(p, q)
    return curve(p // g, q // g)


@st.composite
def _systems(draw, extra=(1, 8), kinds=("new", "repeat", "reversed", "empty"),
             coord=_COORD):
    system = [curve(1, 0), curve(0, 1)]
    for _ in range(draw(st.integers(*extra))):
        kind = draw(st.sampled_from(kinds))
        if kind == "new":
            system.append(draw(_primitive(coord)))
        elif kind == "empty":
            system.append(EMPTY_CURVE)
        else:
            twin = draw(st.sampled_from(system))
            system.append(twin if kind == "repeat" else twin.negated())
    return tuple(system)


def _scheme_of(system):
    vecs = [None if v.is_empty else (v.p, v.q) for v in system]
    return new_scheme(len(system), dets(vecs))


def _sl2(t, u):
    # [[1, t], [0, 1]] times [[1, 0], [u, 1]]
    return ((1 + t * u, t), (u, 1))


@settings(max_examples=200, deadline=None)
@given(system=_systems(), t=_COORD, u=_COORD, data=st.data())
def test_huge_systems(system, t, u, data):
    s = _scheme_of(system)
    n = s.n
    v = decide_torus(s)
    assert v.realizable and verify_system(s, v.witness)
    assert verify_system(s, sl2_act(_sl2(t, u), v.witness))

    red = reduce_zeros(s)
    assert reference.replay_reduction(red) == s
    rows = dense_rows(s)
    for step in red.steps:
        row = rows[step.removed_index - 1]
        if step.reason == "empty":
            assert not any(row)
        else:
            twin = rows[step.of_index - 1]
            assert all(
                row[k] == step.sign * twin[k]
                for k in range(n)
                if k + 1 not in (step.removed_index, step.of_index)
            )

    tail = data.draw(st.permutations(range(3, n + 1)))
    assert decide_torus(permute(s, (1, 2, *tail))).realizable

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scheme.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"n": n, "entries": list(s.entries)}, fh)
        out = io.StringIO()
        with redirect_stdout(out):
            code = run(["check", path])
    assert code == 0
    witness = tuple(
        EMPTY_CURVE if c == "empty" else curve(*c)
        for c in json.loads(out.getvalue())["witness"]
    )
    assert verify_system(s, witness)


# mostly new curves, so that the reduced scheme is often large enough
# (n >= 15) for the Pluecker check's bad-pair screen
_REFUTED_KINDS = ("new",) * 6 + ("repeat", "reversed", "empty")


@settings(max_examples=40, deadline=None)
@given(
    system=_systems((13, 20), _REFUTED_KINDS, st.integers(-10**15, 10**15)),
    data=st.data(),
)
def test_huge_pluecker_refutations(system, data):
    # one entry between two curves that are not Empty and have no repeat
    # is negated or shifted by the lcm of all entries: every gcd is kept,
    # so Pluecker refutes, while the other curves still reduce away
    def lonely(c):
        return not c.is_empty and sum(d in (c, c.negated()) for d in system) == 1

    n = len(system)
    pairs = [
        (i, j)
        for j in range(2, n + 1)
        for i in range(1, j)
        if lonely(system[i - 1]) and lonely(system[j - 1])
    ]
    assume(pairs)
    i, j = data.draw(st.sampled_from(pairs))
    entries = list(_scheme_of(system).entries)
    t = (j - 1) * (j - 2) // 2 + i - 1
    if data.draw(st.booleans()):
        entries[t] = -entries[t]
    else:
        lcm = 1
        for e in entries:
            if e:
                lcm = lcm * abs(e) // gcd(lcm, e)
        entries[t] += lcm
    s = new_scheme(n, entries)
    assert check_pluecker_full(s) == reference.check_pluecker_full(s)
    # reasons on the reduced scheme map back through the survivors
    assert decide_torus(s) == reference.decide_torus(s)
