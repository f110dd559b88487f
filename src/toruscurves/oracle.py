"""Exhaustive decision procedure used to validate the condition pipeline.

Every witness normalizes to gamma_1 = (1,0), gamma_j = (r_j, m_1j), and the
stabilizer of (1,0) reduces r_2 mod m_12, so scanning r_2 over [0, |m_12|)
and propagating r_j = (r_2*m_1j - m_2j) / m_12 enumerates one candidate per
orbit.  This is a validation device, never a production path.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .errors import DomainError, type_strict
from .scheme import Scheme, curve, get, require_nonzero
from .solver import NormalizedWitness

_SCAN_CAP = 10**6


@type_strict
class OracleResult(NamedTuple):
    realizable: bool
    witnesses: tuple  # tuple[NormalizedWitness, ...]
    orbit_count: int


def oracle_realizable(s: Scheme) -> OracleResult:
    """All normalized witnesses with r_2 in [0, |m_12|), by brute force."""
    if s.n == 1:
        w = NormalizedWitness(0, (), (curve(1, 0),))
        return OracleResult(True, (w,), 1)
    require_nonzero(s)
    m12 = get(s, 1, 2)
    if abs(m12) > _SCAN_CAP:
        raise DomainError(f"|m_12| = {abs(m12)} exceeds the oracle scan cap")
    found = []
    for r2 in range(abs(m12)):
        if gcd(r2, abs(m12)) != 1:
            continue
        rs = [r2]
        ok = True
        for j in range(3, s.n + 1):
            num = r2 * get(s, 1, j) - get(s, 2, j)
            if num % m12 != 0:
                ok = False
                break
            rj = num // m12
            if gcd(rj, abs(get(s, 1, j))) != 1:
                ok = False
                break
            rs.append(rj)
        if not ok:
            continue
        # pair relations with index 1 and 2 hold by construction; check the rest
        for jj in range(3, s.n + 1):
            for ii in range(3, jj):
                det = rs[ii - 2] * get(s, 1, jj) - rs[jj - 2] * get(s, 1, ii)
                if det != get(s, ii, jj):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        system = (curve(1, 0),) + tuple(
            curve(rs[j - 2], get(s, 1, j)) for j in range(2, s.n + 1)
        )
        found.append(NormalizedWitness(r2, tuple(rs), system))
    return OracleResult(bool(found), tuple(found), len(found))
