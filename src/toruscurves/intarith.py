"""Exact integer kernels: extended gcd, CRT, primality, factorization and
p-adic valuations.

Everything here works on arbitrary-precision Python integers; there is no
overflow regime anywhere in the package.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, isqrt, prod
from typing import NamedTuple

from .errors import DomainError, InvalidModuli, _integer, type_strict

# Witnesses making Miller-Rabin deterministic for all n below
# _MR_DETERMINISTIC_BOUND, the least strong pseudoprime to all of them
# (1287836182261 * 2575672364521).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BOUND = 3317044064679887385961981

# Factors up to this bound are found by trial division, larger ones by
# Pollard rho.  It must stay above 3: _pollard_rho(9) never returns, and
# among p^2 and p^3 for odd primes p < 5000 it is the only input that loops.
_TRIAL_DIVISION_BOUND = 2**10


@type_strict
class Factorization(NamedTuple):
    """Prime factorization as (prime, exponent) pairs, primes increasing."""

    pairs: tuple[tuple[int, int], ...]


@type_strict
class ResidueClass(namedtuple("ResidueClass", "modulus residue")):
    """A residue class r mod m with 0 <= r < m, both integers stored as
    operator.index returns them, checked in __new__, which _make,
    _replace, copy and pickle all go through."""

    __slots__ = ()

    def __new__(cls, modulus: int, residue: int):
        modulus = _integer(modulus, "modulus")
        residue = _integer(residue, "residue")
        if modulus < 1:
            raise DomainError(f"modulus must be >= 1, got {modulus}")
        if not 0 <= residue < modulus:
            raise DomainError(f"residue {residue} not in [0, {modulus})")
        return tuple.__new__(cls, (modulus, residue))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(|a|, |b|) >= 0 and a*x + b*y = g.

    The Bezout pair is whatever the iterative algorithm yields; only the
    identity is guaranteed.  gcd(0, 0) = 0.
    """
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def crt(classes: list[ResidueClass]) -> ResidueClass:
    """Combine residue classes with pairwise coprime moduli.

    Returns the unique class modulo the product of the moduli that reduces
    to every input class: the sum of each residue times its _crt_basis
    element.
    """
    moduli = [cls.modulus for cls in classes]
    basis = _crt_basis(moduli)
    modulus = prod(moduli)
    return ResidueClass(
        modulus,
        sum(cls.residue * e for cls, e in zip(classes, basis)) % modulus,
    )


def _crt_basis(moduli: list[int]) -> tuple[int, ...]:
    """For pairwise coprime moduli m_1, ..., m_k with product M, the e_i in
    [0, M) with e_i = 1 mod m_i and e_i = 0 mod every other modulus, so
    that the sum of r_i * e_i reduces to r_i mod each m_i.  Raises
    InvalidModuli when two moduli share a factor.
    """
    total = prod(moduli)
    basis = []
    for m in moduli:
        rest = total // m
        try:
            inverse = pow(rest, -1, m)
        except ValueError:
            raise InvalidModuli(
                f"modulus {m} shares factor {gcd(rest, m)} with the others"
            ) from None
        basis.append(rest * inverse)
    return tuple(basis)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    out = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test for odd n > 37 with no prime
    factor up to 37, with Selfridge's parameters: the first D in
    5, -7, 9, -11, ... with (D/n) = -1, P = 1, Q = (1 - D)/4 (Baillie and
    Wagstaff, Math. Comp. 35, 1980)."""
    if isqrt(n) ** 2 == n:
        return False  # no D has (D/n) = -1
    d = 5
    while (j := _jacobi(d, n)) != -1:
        if j == 0:
            return False  # gcd(|d|, n) > 1 and |d| < n
        d = -d - 2 if d > 0 else -d + 2
    q = (1 - d) // 4
    k, s = n + 1, 0
    while k % 2 == 0:
        k //= 2
        s += 1
    # U_k, V_k and Q^k mod n by the binary ladder over the bits of k
    u, v, qk = 0, 2, 1
    for bit in bin(k)[2:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            # U_{m+1} = (U_m + V_m)/2, V_{m+1} = (D*U_m + V_m)/2 for P = 1
            u, v = u + v, d * u + v
            u = (u + n if u % 2 else u) // 2 % n
            v = (v + n if v % 2 else v) // 2 % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with a fixed witness set, deterministic below
    3317044064679887385961981; above it a strong Lucas test is added, which
    makes it a Baillie-PSW test (no counterexample is known)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_DETERMINISTIC_BOUND or _strong_lucas(n)


def next_prime(n: int) -> int:
    """The smallest prime above n."""
    m = max(n + 1, 2)
    while not is_probable_prime(m):
        m += 1
    return m


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        seed += 1
        y, c, m = seed, seed, 128
        g, r, q = 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def _iroot(m: int, k: int) -> int:
    """Floor of the k-th root of m >= 1 (Newton's method from above)."""
    x = 1 << -(-m.bit_length() // k)
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(m: int) -> tuple[int, int]:
    """(r, k) with r**k == m for the least prime k that has one, else
    (m, 1).  m has no prime factor up to 2^10, so r > 2^10 and only the
    primes k <= m.bit_length() // 10 are tried."""
    k = 2
    while k <= m.bit_length() // 10:
        r = _iroot(m, k)
        if r**k == m:
            return r, k
        k = next_prime(k)
    return m, 1


def factorize(n: int) -> Factorization:
    """Complete prime factorization of n >= 1.

    Trial division up to 2^10, then is_probable_prime for any leftover
    cofactor; a composite one is split by its integer root when it is a
    perfect power, since Pollard rho needs about sqrt(p) steps on p^k,
    and by Pollard rho otherwise.  factorize(1) has no pairs.
    """
    if n < 1:
        raise DomainError(f"factorize needs n >= 1, got {n}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = 5
    step = 2  # alternate 5,7,11,13,... (skip multiples of 2 and 3)
    bound = min(isqrt(n), _TRIAL_DIVISION_BOUND)
    while p <= bound:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
            bound = min(isqrt(n), _TRIAL_DIVISION_BOUND)
        p += step
        step = 6 - step
    if n > 1:
        # (cofactor, multiplicity) pairs; every cofactor is above 1
        stack = [(n, 1)]
        while stack:
            m, e = stack.pop()
            if is_probable_prime(m):
                out[m] = out.get(m, 0) + e
                continue
            root, k = _perfect_power(m)
            if k > 1:
                stack.append((root, e * k))
                continue
            d = _pollard_rho(m)
            stack += [(d, e), (m // d, e)]
    return Factorization(tuple(sorted(out.items())))


def valuation(n: int, p: int) -> int:
    """Largest e with p**e dividing n; n must be nonzero."""
    if n == 0:
        raise DomainError("valuation of 0 is undefined here")
    if p < 2:
        raise DomainError(f"p must be prime, got {p}")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e
