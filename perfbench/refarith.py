"""Exact integer arithmetic written independently of alquot.

The benchmark draws its inputs and checks the program's outputs with these
functions, so a defect in alquot's own number theory cannot hide itself.
Primality is deterministic Miller-Rabin (alquot uses trial division),
Legendre symbols are Jacobi reciprocity (alquot uses Euler's criterion),
and odd-prime Hilbert symbols are the tame symbol (alquot uses the
valuation formula).  The archimedean place is written 0.
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = 0

# Miller-Rabin with these bases is exact below 3.3e24 (Sorenson-Webster).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def primes_upto(n: int) -> list[int]:
    """Primes <= n by the sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for d in range(2, math.isqrt(n) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytes(len(range(d * d, n + 1, d)))
    return [i for i, flag in enumerate(sieve) if flag]


_SMALL_PRIMES = primes_upto(1000)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES[:13]:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    n = max(n, 2)
    while not is_prime(n):
        n += 1
    return n


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("jacobi symbol needs an odd positive modulus")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of 0 < |n| <= 10^6, as {prime: exponent}."""
    n = abs(n)
    if not 0 < n <= 1000 * 1000:
        raise ValueError("factorize covers 0 < |n| <= 10^6")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _split(n: int, p: int) -> tuple[int, int]:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n


def hilbert(a: int, b: int, v: int) -> int:
    """(a,b)_v for v = INF or a prime v."""
    if v == INF:
        return -1 if a < 0 and b < 0 else 1
    alpha, u = _split(a, v)
    beta, w = _split(b, v)
    if v == 2:
        eps = ((u - 1) // 2 % 2) * ((w - 1) // 2 % 2)
        omega = alpha * ((w * w - 1) // 8) + beta * ((u * u - 1) // 8)
        return -1 if (eps + omega) % 2 else 1
    # tame symbol (-1)^(alpha beta) a^beta / b^alpha, a unit at v
    tame = pow(-1, alpha * beta) * pow(u, beta, v) * pow(w, -alpha, v)
    return jacobi(tame, v)


def ramified(a: int, b: int) -> frozenset[int]:
    """Places where (a,b) ramifies, for nonzero |a|, |b| <= 10^6."""
    candidates = {INF, 2} | set(factorize(a)) | set(factorize(b))
    return frozenset(v for v in candidates if hilbert(a, b, v) == -1)


def _chi4(ell: int) -> int:
    return 0 if ell == 2 else (1 if ell % 4 == 1 else -1)


def _chi3(ell: int) -> int:
    if ell == 3:
        return 0
    if ell == 2:
        return -1
    return 1 if ell % 3 == 1 else -1


def eichler(primes) -> int:
    """Class number of the definite maximal order ramified at ``primes``."""
    mass, e2, e3 = Fraction(1, 12), Fraction(1, 4), Fraction(1, 3)
    for ell in primes:
        mass *= ell - 1
        e2 *= 1 - _chi4(ell)
        e3 *= 1 - _chi3(ell)
    h = mass + e2 + e3
    if h.denominator != 1:
        raise ValueError(f"non-integral Eichler class number {h}")
    return int(h)


def admissible(p: int, q: int) -> bool:
    """p = 5 mod 24, q = 5 mod 12, both prime, distinct, (p/q) = -1."""
    return (
        p % 24 == 5 and q % 12 == 5 and p != q
        and is_prime(p) and is_prime(q) and jacobi(p, q) == -1
    )


def genus_vb(p: int, q: int) -> Fraction:
    """Closed-form genus of the covering curve for an admissible pair."""
    return 2 * (1 + Fraction((p - 1) * (q - 1) - 16, 24)) - 1
