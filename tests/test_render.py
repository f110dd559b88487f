import os
import subprocess
import sys
from fractions import Fraction

import pytest

from toruscurves import decide_torus, get, new_scheme, render_svg
from toruscurves import render
from toruscurves.errors import DomainError
from toruscurves.render import curve_offset, curve_segments


def signed_crossings(p1: int, q1: int, off1, p2: int, q2: int, off2) -> int:
    """Signed crossing count of two drawn geodesics, by exact segment
    intersection with half-open parameter intervals (test oracle)."""
    total = 0
    segs1 = curve_segments(p1, q1, off1)
    segs2 = curve_segments(p2, q2, off2)
    det = p1 * q2 - p2 * q1
    if det == 0:
        return 0
    sign = 1 if det > 0 else -1
    for (a0, a1) in segs1:
        for (b0, b1) in segs2:
            if _segments_cross(a0, a1, b0, b1):
                total += sign
    return total


def _segments_cross(a0, a1, b0, b1) -> bool:
    # solve a0 + t*(a1-a0) = b0 + u*(b1-b0) with t, u in [0, 1)
    dax, day = a1[0] - a0[0], a1[1] - a0[1]
    dbx, dby = b1[0] - b0[0], b1[1] - b0[1]
    den = dax * dby - dbx * day
    if den == 0:
        return False
    rx, ry = b0[0] - a0[0], b0[1] - a0[1]
    t = Fraction(rx * dby - dbx * ry, den)
    u = Fraction(rx * day - dax * ry, den)
    return 0 <= t < 1 and 0 <= u < 1


def test_horizontal_line_is_single_segment():
    segs = curve_segments(1, 0, (Fraction(0), Fraction(1, 3)))
    assert len(segs) == 1
    (a, b) = segs[0]
    assert a[1] == b[1] == Fraction(1, 3)


def test_diagonal_wraps_once_each_way():
    segs = curve_segments(1, 1, (Fraction(1, 4), Fraction(1, 8)))
    # one cut per grid line crossed inside (0,1)
    assert len(segs) == 3
    for (x0, y0), (x1, y1) in segs:
        assert 0 <= min(x0, x1) and max(x0, x1) <= 1
        assert 0 <= min(y0, y1) and max(y0, y1) <= 1
        assert (x1 - x0) * 1 == (y1 - y0) * 1  # slope 1


def test_segment_direction_matches_class():
    segs = curve_segments(-2, 3, curve_offset(0, 3))
    for (x0, y0), (x1, y1) in segs:
        assert (x1 - x0) * 3 == (y1 - y0) * (-2)


def test_signed_crossings_match_determinant():
    cases = [((1, 0), (0, 1)), ((1, 2), (2, 1)), ((1, 0), (3, 2)),
             ((-1, 2), (1, 2)), ((2, 3), (-1, 1))]
    for i, (u, v) in enumerate(cases):
        got = signed_crossings(
            u[0], u[1], curve_offset(0, 2), v[0], v[1], curve_offset(1, 2)
        )
        assert got == u[0] * v[1] - v[0] * u[1]


def test_rendered_witness_crossings_equal_scheme():
    s = new_scheme(3, [2, 2, 4])
    verdict = decide_torus(s)
    sys = verdict.witness
    n = len(sys)
    for j in range(2, n + 1):
        for i in range(1, j):
            u, v = sys[i - 1], sys[j - 1]
            got = signed_crossings(
                u.p, u.q, curve_offset(i - 1, n),
                v.p, v.q, curve_offset(j - 1, n),
            )
            assert got == get(s, i, j)


def test_render_svg_writes_file(tmp_path):
    s = new_scheme(3, [2, 2, 4])
    out = tmp_path / "witness.svg"
    render_svg(decide_torus(s).witness, str(out))
    text = out.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert text.count("<line") >= 3
    assert 'stroke-width="2"' in text


def test_render_svg_skips_empty_curves(tmp_path, capsys):
    s = new_scheme(3, [0, 1, 0])
    verdict = decide_torus(s)
    assert verdict.used_empty
    out = tmp_path / "empty.svg"
    render_svg(verdict.witness, str(out))
    assert "not drawn" in capsys.readouterr().err


def test_render_svg_bad_path():
    s = new_scheme(3, [1, 1, 1])
    with pytest.raises(OSError):
        render_svg(decide_torus(s).witness, "/nonexistent-dir/x.svg")



def test_curve_segments_refuses_a_class_past_the_segment_limit(monkeypatch):
    # (1, 10^12) crosses the grid 10^12 times: the call must refuse before
    # it builds a segment.  It runs in a subprocess, with its address space
    # capped, so that a loop fails by timeout or MemoryError
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "from toruscurves.errors import DomainError\n"
        "from toruscurves.render import curve_offset, curve_segments\n"
        "try:\n"
        "    curve_segments(1, 10**12, curve_offset(0, 2))\n"
        "except DomainError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "segments" in proc.stdout
    # the bound is |p| + |q| + 1: a class at the limit is drawn
    monkeypatch.setattr(render, "MAX_SEGMENTS", 5)
    assert len(curve_segments(2, -2, curve_offset(0, 1))) <= 5
    with pytest.raises(DomainError):
        curve_segments(-2, 3, curve_offset(0, 1))
