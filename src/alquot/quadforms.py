"""Class numbers of imaginary quadratic orders by counting reduced forms.

The class number of discriminant D < 0 is the number of reduced primitive
positive-definite binary quadratic forms a x^2 + b x y + c y^2 of that
discriminant.  ``class_number`` counts them without building them,
a-major: for most a the count is the number rho(a) of square roots of D
mod 4a, which one sieve over the primes up to sqrt(|D|/3) fills in, and
only a narrow band of large a is scanned for its b, each row from its
shorter side, with rho(a) as the row's total.  The primes come from one
shared table, sieved on first use and capped at 2^14, which covers the
CLI's certify budget; past the cap they are sieved per call.  A Moebius
sum over the square factors of D keeps the primitive forms.  ``reduced_forms``
lists the forms themselves, as (a, b, c) triples, by the classical scan
over (a, b) with a <= sqrt(|D|/3): the reference the count is tested against.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import Sequence

from .ntheory import _check_ints

__all__ = ["reduced_forms", "class_number"]


def _check_discriminant(D: int) -> None:
    _check_ints("class numbers are", D)
    if D >= 0:
        raise ValueError("discriminant must be negative")
    if D % 4 not in (0, 1):
        raise ValueError("a discriminant is 0 or 1 mod 4")


def reduced_forms(D: int) -> frozenset[tuple[int, int, int]]:
    """The positive-definite forms a x^2 + b x y + c y^2 of discriminant D < 0,
    as triples (a, b, c), that are reduced (|b| <= a <= c, the range of b giving
    |b| <= a, and b >= 0 if |b| = a or a = c) and primitive: one per proper class."""
    _check_discriminant(D)
    return frozenset(
        (a, b, c)
        for a in range(1, math.isqrt(-D // 3) + 1)
        for b in range(-a, a + 1)
        if (b * b - D) % (4 * a) == 0
        for c in [(b * b - D) // (4 * a)]
        if a <= c and (b >= 0 or -b != a != c) and math.gcd(a, b, c) == 1
    )


def class_number(D: int) -> int:
    """h(D) = number of reduced primitive forms of discriminant D.

    Counted a-major instead of enumerated (Cohen, section 5.3).  Let N(d)
    count the reduced forms of discriminant d, primitive or not.  A form
    of discriminant D is g times a primitive form of discriminant D/g^2,
    so Moebius inversion gives h(D) = sum of mu(g) N(D/g^2) over the
    squarefree g with g^2 | D and D/g^2 a discriminant.  A prime
    l > sqrt(|D|/3) leaves |D/l^2| < 3, so only the primes up to that
    bound can divide g; ``_primes`` reads them off the shared table.
    ``_reduced_form_count`` computes N; ``len(reduced_forms(D))`` is the
    reference count.

    For a prime p = 1 mod 4 the order Z[sqrt(-p)] is maximal, so
    class_number(-4p) is the class number of Q(sqrt(-p)).
    """
    _check_discriminant(D)
    primes = _primes(math.isqrt(-D // 3))
    h = 0
    for g, mu in _squarefree_products([ell for ell in primes if D % (ell * ell) == 0]):
        d = D // (g * g)
        if d % 4 in (0, 1):
            h += mu * _reduced_form_count(d, primes)
    return h


def _sieve(n: int) -> bytearray:
    """s[i] = 1 exactly for the primes i <= n, n >= 1 (Eratosthenes)."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 1)
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
    return sieve


# The primes up to 2^14 cover class_number at the certify budget |D| = 4 * 10^8,
# whose bound sqrt(|D|/3) is 11547.  The table is (sieve, primes) for the
# primes below len(sieve): it is sieved on first use and grows by doubling
# up to the cap, each time rebound whole, so a concurrent reader sees an
# old table or a new one, never a part.  Past the cap ``_primes`` sieves
# per call, so the table's memory stays bounded.
_PRIME_CAP = 1 << 14
_prime_table: tuple[bytes, tuple[int, ...]] = (b"", ())


def _primes(n: int) -> Sequence[int]:
    """The primes up to n >= 1, read off the shared table when n <= _PRIME_CAP."""
    global _prime_table
    if n > _PRIME_CAP:
        return list(compress(range(n + 1), _sieve(n)))
    sieve, primes = _prime_table
    if n >= len(sieve):
        sieve = bytes(_sieve(min(_PRIME_CAP, 1 << n.bit_length())))
        primes = tuple(compress(range(len(sieve)), sieve))
        _prime_table = sieve, primes
    return primes[: sieve.count(1, 0, n + 1)]


def _squarefree_products(primes: list[int]) -> list[tuple[int, int]]:
    """(g, mu(g)) for each product g of distinct primes from the list."""
    out = [(1, 1)]
    for ell in primes:
        out += [(g * ell, -mu) for g, mu in out]
    return out


def _root_count(ell: int, j: int, v: int, u: int) -> int:
    """#{x mod l^j : x^2 = l^v u mod l^j} for a prime l not dividing u."""
    if j <= v:  # x^2 = 0 mod l^j: x = 0 mod l^ceil(j/2)
        return ell ** (j // 2)
    if v % 2:
        return 0
    # x = l^(v/2) y with y a unit mod l^(j - v/2) and y^2 = u mod l^(j - v)
    j -= v
    if ell > 2:
        units = 2 if pow(u, (ell - 1) // 2, ell) == 1 else 0  # Euler's criterion
    elif j == 1:
        units = 1
    elif j == 2:
        units = 2 if u % 4 == 1 else 0
    else:
        units = 4 if u % 8 == 1 else 0
    return ell ** (v // 2) * units


def _root_counts(d: int, top: int, primes: Sequence[int]) -> list[int]:
    """rho(a) = #{x mod 2a : x^2 = d mod 4a} at index a, for 1 <= a <= top
    (index 0 is unused), given (at least) the primes up to top.

    By the Chinese remainder theorem rho is multiplicative, and one sieve
    over the primes l <= top fills it: an odd l prime to d has l^k-factor
    1 + (d/l) for every k >= 1, and the other l read theirs off
    ``_root_count``, at l = 2 as half the count mod 2^(k+2).
    """
    rho = [1] * (top + 1)
    for ell in primes:
        if ell > top:
            break
        if ell > 2 and d % ell:
            residue = pow(d, (ell - 1) // 2, ell) == 1  # (d/l) = 1, by Euler's criterion
            if 2 * ell > top:  # l is its own only multiple up to top
                rho[ell] = 2 if residue else 0
            elif residue:
                rho[ell::ell] = [2 * x for x in rho[ell::ell]]
            else:
                rho[ell::ell] = [0] * (top // ell)
            continue
        v, u = 0, d
        while u % ell == 0:
            u //= ell
            v += 1
        # the factor at l^k is the root count mod l^k, at l = 2 half the one
        # mod 2^(k+2); past the exponent v + 3 Hensel's lemma keeps it fixed
        shift = 2 if ell == 2 else 0
        prev, k, m = 1, 1, ell
        while m <= top and k + shift <= v + 3:
            local = _root_count(ell, k + shift, v, u) >> (shift // 2)
            if local == 0:
                rho[m::m] = [0] * (top // m)
                break
            if local != prev:
                # a local count that is not 0 is a multiple of the one before
                ratio = local // prev
                rho[m::m] = [x * ratio for x in rho[m::m]]
            prev, k, m = local, k + 1, m * ell
    return rho


def _reduced_form_count(d: int, primes: Sequence[int]) -> int:
    """N(d), the number of reduced forms of discriminant d < 0, primitive
    or not, given (at least) the primes up to A = sqrt(|d|/3).

    Every a <= a0 = sqrt(|d|)/2 has 4a^2 <= |d|, so each b in (-a, a]
    with b^2 = d mod 4a gives c >= a, and c = a only at b = 0: a
    contributes rho(a) = #{x mod 2a : x^2 = d mod 4a}, which
    ``_root_counts`` sieves for every a <= A.

    In the band a0 < a <= A, rho(a) is a count the result depends on, not
    only a filter.  A row with rho(a) > 0 holds the forms with |b| >= b0,
    where b0 >= 1 is the least b = d mod 2 with c >= a; (a, b, c) and
    (a, -b, c) are both reduced unless b = a or c = a, and c = a only at
    b = b0.  Where b0 < a/2 the row is rho(a) less the roots with |b| < b0
    (b = 0 counts once), less the root -b0 when c = a there; otherwise it
    scans the b in [b0, a].  Either way about a/4 values of b are tried.
    """
    top = math.isqrt(-d // 3)
    a0 = math.isqrt(-d) // 2
    rho = _root_counts(d, top, primes)
    n = sum(rho[1 : a0 + 1])
    for a in range(a0 + 1, top + 1):
        r = rho[a]
        if r:
            m = 4 * a
            # the least b >= 0 with b^2 >= 4a^2 + d, so c >= a, and b = d mod 2;
            # it is positive, as 4a^2 > |d|
            b0 = math.isqrt(m * a + d - 1) + 1
            b0 += (b0 - d) % 2
            if 2 * b0 < a:
                # the r roots in (-a, a] less those with |b| < b0, where c < a,
                # and less -b0 when c = a
                r -= sum(2 if b else 1 for b in range(b0 % 2, b0, 2) if (b * b - d) % m == 0)
                n += r - 1 if b0 * b0 == m * a + d else r
            else:
                # (a, b, c) and (a, -b, c) are both reduced, unless b = a or a = c
                n += sum(
                    1 if b == a or b * b - d == m * a else 2
                    for b in range(b0, a + 1, 2)
                    if (b * b - d) % m == 0
                )
    return n
