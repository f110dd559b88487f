"""tools/bench_series.py's process and timing paths: its cold-start
commands, the paired rounds that time a point across two trees, and the
recording of a point."""

import statistics
import sys
from pathlib import Path

import pytest

import bench_series
import toruscurves

SRC = Path(__file__).resolve().parent.parent / "src"
# the trees of the scripted runs, which read only the label
TREES = {"parent": None, "change": None}


def test_cold_start_commands_exit_0(tmp_path):
    # python -c pass, python -c "import toruscurves" and python -m
    # toruscurves check on a realizable 6-scheme, from a copy of src/ with
    # PYTHONDONTWRITEBYTECODE=1 and with a fresh PYTHONPYCACHEPREFIX;
    # cold_run raises SystemExit unless each exits 0 and check prints
    # status "torus"
    path, envs = bench_series.cold_setup({"change": SRC}, tmp_path)
    assert sorted(envs) == [("cached", "change"), ("source", "change")]
    for env in envs.values():
        for flags in ((), ("-O",)):
            for name in bench_series.COLD_COMMANDS:
                bench_series.cold_run(env, name, path, flags)


def scripted(times, log=None, output=lambda label: None, **counts):
    """A run whose calls report each tree's next scripted time in ms, with
    the counts, and append the label to log."""
    left = {label: iter(ms) for label, ms in times.items()}

    def run(label, tree):
        if log is not None:
            log.append(label)
        return {"ms": next(left[label]), **counts}, output(label)

    return run


def record_one(trees, run) -> dict:
    points = []
    bench_series.record(points, trees, {"ms": run}, lambda out: {"x": 1})
    (point,) = points
    return point


@pytest.fixture
def one_pair_rounds(monkeypatch):
    # a round that must take no time holds one call per tree
    monkeypatch.setattr(bench_series, "ROUND_S", 0)
    monkeypatch.setattr(bench_series, "ROUNDS", 5)


def test_ratio_is_the_median_of_the_round_ratios(one_pair_rounds):
    point = record_one(TREES, scripted({
        "parent": [10.0, 10.0, 20.0, 10.0, 10.0],
        "change": [12.0, 8.0, 20.0, 11.0, 9.5]}))
    assert point["round_ratios"] == {"ratio": [1.2, 0.8, 1.0, 1.1, 0.95]}
    assert point["ratio"] == 1.0
    # each tree's time is the median of its round values
    assert point["parent"] == {"ms": 10.0}
    assert point["change"] == {"ms": 11.0}


@pytest.mark.parametrize("outlier", [100.0, 0.1])
def test_one_outlier_round_moves_nothing(one_pair_rounds, outlier):
    change = [10.0, 10.2, outlier, 9.9, 10.0]
    point = record_one(TREES, scripted({"parent": [10.0] * 5,
                                        "change": change}))
    assert point["ratio"] == 1.0
    assert point["change"] == {"ms": 10.0}


def test_which_tree_goes_first_alternates(one_pair_rounds):
    log = []
    record_one(TREES, scripted({"parent": [1.0] * 5, "change": [1.0] * 5},
                               log))
    pairs = [log[i:i + 2] for i in range(0, len(log), 2)]
    assert len(pairs) == 5 and all(sorted(p) == sorted(TREES) for p in pairs)
    assert all(a[0] != b[0] for a, b in zip(pairs, pairs[1:]))


def test_a_round_lasts_until_each_tree_has_taken_the_minimum(monkeypatch):
    # 24 ms a round: the parent reaches it in 3 calls of 10 ms, the change
    # in 5 calls of 5 ms, and the trees keep taking turns until both have
    monkeypatch.setattr(bench_series, "ROUND_S", 0.024)
    monkeypatch.setattr(bench_series, "ROUNDS", 5)
    log = []
    point = record_one(TREES, scripted({"parent": [10.0] * 25,
                                        "change": [5.0] * 25}, log))
    assert log.count("parent") == log.count("change") == 25
    assert point["parent"] == {"ms": 10.0}
    assert point["change"] == {"ms": 5.0}
    assert point["ratio"] == 0.5


def test_outputs_that_differ_stop_the_script(one_pair_rounds):
    with pytest.raises(SystemExit):
        record_one(TREES, scripted({"parent": [1.0] * 5,
                                    "change": [1.0] * 5},
                                   output=lambda label: label))


def test_a_count_is_recorded_unchanged_without_a_ratio(one_pair_rounds):
    times = {"parent": [3.0] * 5, "change": [2.0] * 5}
    point = record_one(TREES, scripted(times, calls=7))
    assert point["parent"] == {"ms": 3.0, "calls": 7}
    assert point["change"] == {"ms": 2.0, "calls": 7}
    assert set(point) == {"x", "parent", "change", "ratio", "round_ratios"}
    assert set(point["round_ratios"]) == {"ratio"}
    # without a parent there is no ratio at all
    alone = record_one({"change": None}, scripted({"change": [2.0] * 5},
                                                   calls=7))
    assert alone == {"x": 1, "change": {"ms": 2.0, "calls": 7}}


def test_record_times_a_point_in_both_trees(monkeypatch):
    # the real trees, timed in short rounds
    monkeypatch.setattr(bench_series, "ROUND_S", 0.005)
    alias = "parent_toruscurves"
    trees = {"parent": bench_series.load_tree(SRC, alias),
             "change": toruscurves}
    try:
        assert trees["parent"].__name__ == alias
        entries = bench_series.kappa_entries(7, 2)

        def run(label, tree):
            ms, v = bench_series.timed(tree.decide_torus,
                                       tree.new_scheme(3, entries))
            return {"decide_ms": ms}, bench_series.witness_of(v)

        points = []
        bench_series.record(points, trees, {"decide_ms": run},
                            lambda out: {"p": 7, "nu": 2})
        (point,) = points
        assert set(point) == {"p", "nu", "parent", "change", "decide_ratio",
                              "round_ratios"}
        assert set(point["parent"]) == set(point["change"]) == {"decide_ms"}
        ratios = point["round_ratios"]["decide_ratio"]
        assert len(ratios) == bench_series.ROUNDS
        assert point["decide_ratio"] == statistics.median(ratios)
    finally:
        for name in [m for m in sys.modules
                     if m == alias or m.startswith(alias + ".")]:
            del sys.modules[name]
