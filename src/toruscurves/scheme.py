"""Intersection schemes and curve classes on the torus.

An n-scheme prescribes the pairwise algebraic intersection numbers m_ij of
n ordered curves.  Entries are stored in column order

    m_12; m_13, m_23; m_14, m_24, m_34; ...

so the block for column j holds (m_1j, ..., m_{j-1,j}).  A curve class on
the torus is a primitive integer vector (p, q); an Empty class intersects
everything zero times.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, zip_longest
from math import gcd
from operator import index, neg
from typing import NamedTuple, Optional, Union

from .errors import (
    DomainError,
    InvalidPermutation,
    InvalidShape,
    PreconditionViolated,
    _integer,
    type_strict,
)


@type_strict
class CurveClass(NamedTuple):
    """Oriented isotopy class: an integer vector (p, q), or Empty.

    The Empty class is represented by p = q = None.  Primitivity is not
    enforced at construction; verify_system checks it where it matters.
    """

    p: Optional[int]
    q: Optional[int]

    @property
    def is_empty(self) -> bool:
        return self.p is None

    def is_primitive(self) -> bool:
        if self.is_empty:
            return True
        return (self.p, self.q) != (0, 0) and gcd(abs(self.p), abs(self.q)) == 1

    def negated(self) -> "CurveClass":
        if self.is_empty:
            return self
        return CurveClass(-self.p, -self.q)

    def __repr__(self) -> str:
        if self.is_empty:
            return "Empty"
        return f"({self.p},{self.q})"


EMPTY_CURVE = CurveClass(None, None)


def curve(p: int, q: int) -> CurveClass:
    return CurveClass(p, q)


@type_strict
class Scheme(namedtuple("Scheme", "n entries")):
    """Upper-triangular table of intersection numbers, column order.

    n must be an integer, stored as operator.index returns it, and
    entries a tuple, else DomainError; the entries themselves are not
    checked here (new_scheme converts each).
    The checks run in __new__, which _make, _replace, copy and pickle
    all go through.
    """

    __slots__ = ()

    def __new__(cls, n: int, entries: tuple):
        n = _integer(n, "n")
        if not isinstance(entries, tuple):
            raise DomainError(
                f"entries is a {type(entries).__name__}, not a tuple"
            )
        if n < 1:
            raise InvalidShape(f"need n >= 1, got n={n}")
        want = n * (n - 1) // 2
        if len(entries) != want:
            raise InvalidShape(
                f"n={n} needs {want} entries, got {len(entries)}"
            )
        return tuple.__new__(cls, (n, entries))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __repr__(self) -> str:
        return f"Scheme(n={self.n}, {list(self.entries)})"


def new_scheme(n: int, entries) -> Scheme:
    """Validated scheme from an entry sequence in column order.

    n and every entry must be integers (anything operator.index accepts);
    floats, strings and fractions raise DomainError rather than being
    truncated or parsed.
    """
    if type(entries) not in (list, tuple):
        # map below consumes an iterator; the fallback reads entries again
        entries = tuple(entries)
    try:
        # through a list of known length: a tuple built straight from map
        # is sized by guesswork and shrunk, which over a run of small
        # schemes leaves some 0.4 MB parked in the small-tuple free lists
        out = tuple(list(map(index, entries)))
    except TypeError:
        # map cannot say which entry failed: find it to name it
        for k, e in enumerate(entries):
            try:
                index(e)
            except TypeError:
                raise DomainError(
                    f"entries[{k}] is {e!r}, not an integer"
                ) from None
        raise
    return Scheme(n, out)


def _pos(i: int, j: int) -> int:
    # column-order index of m_ij for 1 <= i < j
    return (j - 1) * (j - 2) // 2 + (i - 1)


def columns(s: Scheme):
    """Yield the column blocks (m_1j, ..., m_{j-1,j}) for j = 2..n."""
    entries, start = s.entries, 0
    for j in range(1, s.n):
        yield entries[start:start + j]
        start += j


def require_nonzero(s: Scheme) -> None:
    """Raise PreconditionViolated unless every entry of s is nonzero."""
    if 0 in s.entries:
        raise PreconditionViolated("zero entries: apply reduce_zeros first")


def get(s: Scheme, i: int, j: int) -> int:
    """m_ij for i < j, -m_ji for i > j; the diagonal is undefined."""
    if i == j or not (1 <= i <= s.n and 1 <= j <= s.n):
        raise IndexError(f"bad index pair ({i},{j}) for n={s.n}")
    if i < j:
        return s.entries[_pos(i, j)]
    return -s.entries[_pos(j, i)]


def permute(s: Scheme, sigma) -> Scheme:
    """Relabel curves by sigma: entry (i,j) of the result is m_{sigma(i)sigma(j)}
    under the antisymmetric accessor (so a sign flips when sigma reverses
    the order of a pair).
    """
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(1, s.n + 1)):
        raise InvalidPermutation(f"{sigma} is not a permutation of 1..{s.n}")
    out = [
        get(s, sigma[i - 1], sigma[j - 1])
        for j in range(2, s.n + 1)
        for i in range(1, j)
    ]
    return Scheme(s.n, tuple(out))


def scheme_sum(a: Scheme, b: Scheme) -> Scheme:
    """Entrywise sum of two schemes of the same size."""
    if a.n != b.n:
        raise InvalidShape(f"size mismatch: {a.n} vs {b.n}")
    return Scheme(a.n, tuple(x + y for x, y in zip(a.entries, b.entries)))


# ---------------------------------------------------------------------------
# Zero-entry reduction
# ---------------------------------------------------------------------------

DUPLICATE = "duplicate_of"
EMPTY = "empty"


@type_strict
class ReductionStep(NamedTuple):
    """One curve removal.  Indices are original 1-based curve indices, as in
    ReductionLog.survivors; the twin of a duplicate is alive when the step
    is taken."""

    removed_index: int
    reason: str  # DUPLICATE or EMPTY
    of_index: Optional[int] = None  # for DUPLICATE: the surviving twin
    sign: Optional[int] = None  # for DUPLICATE: +1 parallel, -1 reversed


@type_strict
class ReductionLog(NamedTuple):
    steps: tuple  # tuple[ReductionStep, ...]
    reduced: Scheme
    survivors: tuple  # original 1-based indices of the reduced curves


@type_strict
class Unresolvable(NamedTuple):
    """A zero entry admits no duplicate/empty resolution; this certifies
    non-realizability on the torus.  Indices are original positions."""

    i: int
    j: int
    steps: tuple
    survivors: tuple


def dense_rows(s: Scheme) -> list:
    """The antisymmetric n x n matrix as a list of 0-based rows:
    rows[i][j] = m_{i+1,j+1}, with a zero diagonal.

    Row i is column i negated, then 0, then the entries m_{i+1,j+1} for
    j > i, which are the i-th entries of the later columns: the tuple
    zip_longest(*columns)[i] past its i leading fill values.
    """
    cols = [(), *columns(s)]
    tails = chain(zip_longest(*cols[1:]), [()])  # the last row has no tail
    return [
        [*map(neg, col), 0, *tail[i:]]
        for i, (col, tail) in enumerate(zip(cols, tails))
    ]


def reduce_zeros(s: Scheme) -> Union[ReductionLog, Unresolvable]:
    """Eliminate zero entries by dropping duplicate or empty curves.

    Zero pairs are scanned in lexicographic order and the first resolvable
    one is applied; for duplicates the larger index is dropped.  The result
    has no zero entries (n=1 has none by shape).  If a pass finds zero
    entries but can resolve none of them, that certifies the scheme is not
    realizable on a torus and Unresolvable is returned.

    Dropping a duplicate or empty curve changes neither which entries of
    the other curves vanish nor whether a zero pair is a (reversed)
    duplicate or has an empty row, so the scan is a single pass over the
    original matrix.  Two curves with m_ab = 0 agree off {a, b} exactly
    when their full rows agree, so duplicates are found by hashing rows;
    a reversed duplicate's row is the negated row, which is the column of
    the same index, so the columns are the negated keys.  Which rows are
    Empty is read once, and each row is walked from zero to zero, not
    entry by entry, so a mostly-zero scheme costs O(n^2).
    """
    n = s.n
    if 0 not in s.entries:
        return ReductionLog((), s, tuple(range(1, n + 1)))
    rows = dense_rows(s)
    row_id: dict = {}
    ids = [row_id.setdefault(tuple(r), len(row_id)) for r in rows]
    # column k of the antisymmetric matrix is row k negated
    neg_ids = [row_id.get(col) for col in zip(*rows)]
    full = list(map(any, rows))  # False for an Empty curve's row
    alive = [True] * n
    steps = []
    unresolved = []

    def drop(k: int, reason: str, of: Optional[int] = None, sign=None):
        of_index = None if of is None else of + 1
        steps.append(ReductionStep(k + 1, reason, of_index, sign))
        alive[k] = False

    for a in range(n):
        ra, b = rows[a], a
        while alive[a]:
            try:  # the next zero pair (a, b)
                b = ra.index(0, b + 1)
            except ValueError:
                break
            if not alive[b]:
                continue
            if ids[a] == ids[b]:
                drop(b, DUPLICATE, a, +1)
            elif neg_ids[b] == ids[a]:
                drop(b, DUPLICATE, a, -1)
            elif not full[a]:
                drop(a, EMPTY)
            elif not full[b]:
                drop(b, EMPTY)
            else:
                unresolved.append((a, b))
    keep = [k for k in range(n) if alive[k]]
    survivors = tuple(k + 1 for k in keep)
    for a, b in unresolved:
        if alive[a] and alive[b]:
            return Unresolvable(a + 1, b + 1, tuple(steps), survivors)
    reduced = Scheme(
        len(keep),
        tuple(rows[a][b] for t, b in enumerate(keep) for a in keep[:t]),
    )
    return ReductionLog(tuple(steps), reduced, survivors)


def _sources(log: ReductionLog) -> list:
    """For each original curve, in order: its 1-based index in the reduced
    scheme, negated when the curve is a reversed duplicate, or 0 when the
    curve is Empty (or a duplicate of an Empty curve)."""
    src = [0] * (len(log.survivors) + len(log.steps) + 1)
    for t, k in enumerate(log.survivors, start=1):
        src[k] = t
    # a twin is alive when its duplicate is dropped, so it is a survivor or
    # removed by a later step, which the reversed pass has already mapped
    for step in reversed(log.steps):
        if step.reason == DUPLICATE:
            src[step.removed_index] = step.sign * src[step.of_index]
    return src[1:]


def lift_system(log: ReductionLog, system) -> tuple:
    """Extend a curve system for the reduced scheme back to the original,
    re-inserting Empty curves and (possibly reversed) duplicates."""
    return tuple(
        EMPTY_CURVE if t == 0
        else system[t - 1] if t > 0
        else system[-t - 1].negated()
        for t in _sources(log)
    )
