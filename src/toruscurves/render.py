"""Flat-torus pictures of witness systems.

A class (p, q) is drawn as the straight geodesic of direction (p, q) on the
unit square with opposite sides identified, broken into wrapped segments.
Offsets are exact rationals chosen per curve index so that distinct curves
never overlap and crossings stay away from the wrapping grid; the signed
crossing count of two drawn classes then equals their determinant, which a
test-side sweep verifies against the scheme.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import DomainError

SVG_SIZE = 512
STROKE_WIDTH = 2
# render_svg refuses a system drawn with more segments than this, before it
# builds any: each is one <line> element of about 100 bytes, so the limit
# is about 10 MB of SVG
MAX_SEGMENTS = 10**5


def curve_offset(index: int, total: int) -> tuple:
    """Deterministic rational offset for curve number `index` (0-based)."""
    ox = Fraction(2 * index + 1, 2 * total * 101)
    oy = Fraction((3 * index + 2) % 89, 178)
    return ox, oy


def curve_segments(p: int, q: int, offset) -> list:
    """Wrapped unit-square segments of the geodesic t -> offset + t*(p, q),
    t in [0, 1).  Each segment is ((x0, y0), (x1, y1)) with exact Fraction
    endpoints; consecutive segments share a wrap point.  There are at most
    |p| + |q| + 1 of them, and a class whose bound exceeds MAX_SEGMENTS
    raises DomainError before any is built."""
    if (p, q) == (0, 0):
        raise DomainError("(0,0) has no direction")
    if abs(p) + abs(q) + 1 > MAX_SEGMENTS:
        raise DomainError(
            f"({p},{q}) is drawn as up to {abs(p) + abs(q) + 1} segments, "
            f"more than the {MAX_SEGMENTS} that render draws"
        )
    ox, oy = Fraction(offset[0]), Fraction(offset[1])
    cuts = {Fraction(0), Fraction(1)}
    for start, step in ((ox, p), (oy, q)):
        if step == 0:
            continue
        lo, hi = sorted((start, start + step))
        for k in range(math.ceil(lo), math.floor(hi) + 1):
            t = Fraction(k - start, step)
            if 0 < t < 1:
                cuts.add(t)
    times = sorted(cuts)
    segments = []
    for t0, t1 in zip(times[:-1], times[1:]):
        mid = (t0 + t1) / 2
        # translate so the segment midpoint lies in the unit square
        mx, my = ox + mid * p, oy + mid * q
        dx, dy = mx - (mx % 1), my - (my % 1)
        a = (ox + t0 * p - dx, oy + t0 * q - dy)
        b = (ox + t1 * p - dx, oy + t1 * q - dy)
        segments.append((a, b))
    return segments


def render_svg(system, out_path: str) -> None:
    """Write an SVG of the system on the flat torus; curve i is drawn in
    hue i*360/N.  Empty curves are skipped with a warning on stderr.

    A class (p, q) is drawn as at most |p| + |q| + 1 segments; a system
    whose bound exceeds MAX_SEGMENTS raises DomainError, and no file is
    written."""
    segments = sum(abs(c.p) + abs(c.q) + 1 for c in system if not c.is_empty)
    if segments > MAX_SEGMENTS:
        raise DomainError(
            f"the picture has up to {segments} segments, more than the "
            f"{MAX_SEGMENTS} that render draws"
        )
    n = len(system)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
        f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white" '
        'stroke="black" stroke-width="1"/>',
    ]
    for i, cls in enumerate(system):
        if cls.is_empty:
            print(
                f"warning: curve {i + 1} is empty and is not drawn",
                file=sys.stderr,
            )
            continue
        p, q = cls.p, cls.q
        hue = i * 360 // max(n, 1)
        color = f"hsl({hue},85%,40%)"
        for (x0, y0), (x1, y1) in curve_segments(p, q, curve_offset(i, n)):
            lines.append(
                f'<line x1="{_px(x0)}" y1="{_px(1 - y0)}" '
                f'x2="{_px(x1)}" y2="{_px(1 - y1)}" '
                f'stroke="{color}" stroke-width="{STROKE_WIDTH}"/>'
            )
    lines.append("</svg>")
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write SVG to {out_path}: {exc}") from exc


def _px(v: Fraction) -> str:
    return f"{float(v) * SVG_SIZE:.4f}"
