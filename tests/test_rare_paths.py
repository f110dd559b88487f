"""Paths that the rest of the suite reaches only by chance or not at all:
large prime factors past trial division, the failure relabel of zero
reduction in both refutation stages, a refuted leaf of the decomposition
search, and three CLI branches."""

from collections import Counter
from itertools import combinations

import reference
import toruscurves.genus as genus
from test_cli import run_json, write_scheme
from toruscurves import (
    FailedPluecker,
    FailedToz,
    FailedTriangle,
    ReductionLog,
    ReductionStep,
    bounded_decomposition_search,
    decide_torus,
    factorize,
    new_scheme,
    reduce_zeros,
)
from toruscurves.cli import run
from toruscurves.scheme import DUPLICATE, EMPTY

# primes between the trial-division bound 2^10 and 10^6
BIG_PRIMES = (1031, 4099, 65537, 99991, 524287, 999983)
# cofactors below the bound: none, 9, 2*3*5*7 and 9*2*3*5*7
SMALL = ({}, {3: 2}, {2: 1, 3: 1, 5: 1, 7: 1}, {2: 1, 3: 3, 5: 1, 7: 1})


def test_factorize_primes_past_trial_division():
    for p, q in combinations(BIG_PRIMES, 2):
        for small in SMALL:
            for powers in ({p: 1, q: 1}, {p: 2, q: 1}, {p: 1, q: 3}):
                want = Counter(small) + Counter(powers)
                n = 1
                for f, e in want.items():
                    n *= f**e
                assert factorize(n).pairs == tuple(sorted(want.items()))
    for e in (61, 89):
        assert factorize(2**e - 1).pairs == ((2**e - 1, 1),)


def _padded(s):
    """s behind an Empty first curve and a reversed duplicate of its first
    curve, so its curve t is curve t + 2 of the result (t + 1 for t = 1)."""
    steps = (ReductionStep(1, EMPTY), ReductionStep(3, DUPLICATE, 2, -1))
    survivors = (2,) + tuple(range(4, s.n + 3))
    padded = reference.replay_reduction(ReductionLog(steps, s, survivors))
    red = reduce_zeros(padded)
    assert (red.steps, red.reduced, red.survivors) == (steps, s, survivors)
    return padded


def test_triangle_reasons_on_original_indices():
    s = _padded(new_scheme(4, [5, 15, 15, 15, 15, 3]))
    v = decide_torus(s)
    assert v.reasons == (
        FailedTriangle(2, 4, 5),
        FailedTriangle(2, 4, 6),
        FailedTriangle(2, 5, 6),
        FailedTriangle(4, 5, 6),
    )
    assert v.reasons == reference.decide_torus(s).reasons


def test_pluecker_reasons_on_original_indices():
    # the system (1,0), (0,1), (1,1), (1,2), (2,1) with m_24 negated: every
    # triangle holds and the relations through curves 2 and 4 fail
    s = _padded(new_scheme(5, [1, 1, -1, 2, 1, 1, 1, -2, -1, -3]))
    v = decide_torus(s)
    assert v.reasons == (
        FailedPluecker(2, 4, 5, 6),
        FailedPluecker(2, 4, 6, 7),
        FailedPluecker(4, 5, 6, 7),
    )
    assert v.reasons == reference.decide_torus(s).reasons


def test_search_backtracks_from_refuted_leaves(monkeypatch):
    refuted = []

    def counted(s):
        v = decide_torus(s)
        if not v.realizable:
            refuted.append((s.entries, v.reasons))
        return v

    monkeypatch.setattr(genus, "decide_torus", counted)
    s = new_scheme(4, [-3, 3, 3, 3, -3, 6])
    hit = bounded_decomposition_search(s, 6)
    assert hit.left.entries == (-4, -2, 2, -2, -6, -4)
    assert hit.right.entries == (1, 5, 1, 5, 3, 10)
    assert hit.left.entries == reference.search_generic(s, 6)
    assert [(e, tuple(r.prime for r in rs)) for e, rs in refuted] == [
        ((3, 3, -3, 3, 3, 6), (3,)),
        ((3, -3, 3, -3, -3, 6), (3,)),
    ]
    assert all(isinstance(r, FailedToz) for _, rs in refuted for r in rs)


def test_decompose_of_a_torus_scheme(tmp_path, capsys):
    path = write_scheme(tmp_path, "m.json", 3, [1, 1, 1])
    code, doc = run_json(capsys, ["decompose", path])
    assert code == 0 and doc["already_torus"] is True
    assert doc["verdict"] == run_json(capsys, ["check", path])[1]


def test_render_into_missing_directory(tmp_path, capsys):
    path = write_scheme(tmp_path, "m.json", 3, [2, 2, 4])
    out = tmp_path / "missing" / "pic.svg"
    assert run(["render", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert not out.exists()


def test_oracle_on_one_curve(tmp_path, capsys):
    path = write_scheme(tmp_path, "m.json", 1, [])
    code, doc = run_json(capsys, ["oracle", path])
    assert code == 0
    assert doc == {
        "realizable": True,
        "orbit_count": 1,
        "witnesses": [{"r2": 0, "witness": [[1, 0]]}],
    }
