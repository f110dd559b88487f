"""tools/bench_series.py's process and timing paths: its cold-start
commands, and the alternating, re-timing and recording of a point across
two trees."""

import sys
from pathlib import Path

import pytest

import bench_series
import toruscurves

SRC = Path(__file__).resolve().parent.parent / "src"


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


def test_record_times_a_point_in_both_trees():
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
        bench_series.record(points, trees, 1, run, ("decide_ms",),
                            lambda out: {"p": 7, "nu": 2})
        (point,) = points
        # a first ratio above RETIME_RATIO adds the first reading's ratios
        first = point.pop("first_ratios", None)
        assert first is None or set(first) == {"decide_ratio"}
        assert set(point) == {"p", "nu", "parent", "change", "decide_ratio"}
        assert set(point["parent"]) == set(point["change"]) == {"decide_ms"}
        assert point["decide_ratio"] == round(
            point["change"]["decide_ms"] / point["parent"]["decide_ms"], 3)

        # outputs that differ between the trees stop the script
        with pytest.raises(SystemExit):
            bench_series.record([], trees, 1,
                                lambda label, tree: ({"ms": 1.0}, label),
                                ("ms",), lambda out: {})
    finally:
        for name in [m for m in sys.modules
                     if m == alias or m.startswith(alias + ".")]:
            del sys.modules[name]
