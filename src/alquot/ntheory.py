"""Exact integer arithmetic over the places of Q.

Primality, p-adic valuations, Legendre and Kronecker symbols, and Hilbert
symbols at every place (finite primes and the archimedean place).
``is_prime`` and ``prime_factors`` share one trial-division loop,
``_least_prime_factor``, and ``is_squarefree`` reads the factorization.  The
Hilbert symbol is computed twice over: once by the classical closed
formulas, and once by ``hilbert_symbol_oracle``, which decides solvability
of z^2 = a x^2 + b y^2 by exhaustive search over a residue ring large
enough for Hensel lifting.  They share only ``_valuation``, the loop that
``valuation`` runs after its checks, and exist to check each other.  The
search scans a byte mask of the squares in plain Python, so this module,
like the whole package, needs nothing beyond the standard library.

``is_prime``, ``prime_factors``, ``is_squarefree`` (of a nonzero n),
``valuation``, ``legendre``, ``kronecker``, ``hilbert_symbol`` and
``Place`` (of a finite prime) refuse a non-int with ``TypeError``: a float
would lose its low digits and give the factors, the valuation or the
symbol of another number.  ``hilbert_symbol`` and ``hilbert_symbol_oracle``
refuse a place v that is not a ``Place`` with ``TypeError`` too.  The
table calls the unchecked cores ``_kronecker`` and ``_hilbert_symbol``
about four times a row, on ints that its admission has already proven, and
``quaternion.ramified_places`` calls ``_hilbert_symbol`` on a and b once
factoring has checked them.

``_Value``, the base of the package's immutable value classes, sits here
beside ``Place``, in the layer every other module imports.

Everything here is deterministic and pure; all functions are safe to call
from multiple threads.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress
from typing import Sequence

__all__ = [
    "Place",
    "INFINITY",
    "is_prime",
    "is_squarefree",
    "prime_factors",
    "valuation",
    "legendre",
    "kronecker",
    "hilbert_symbol",
    "hilbert_symbol_oracle",
]


def _check_ints(subject: str, *values: object) -> None:
    """Refuse a non-int (a bool counts as one) with ``TypeError``: "<subject>
    defined for ints, not <its type>"."""
    for value in values:
        if not isinstance(value, int):
            raise TypeError(f"{subject} defined for ints, not {type(value).__name__}")


def _check_place(v: object) -> None:
    """Refuse a place that is not a ``Place`` with ``TypeError``."""
    if not isinstance(v, Place):
        raise TypeError(f"Hilbert symbols are defined at a Place, not {type(v).__name__}")


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division (desk scale); n must
    be an int (a bool counts as one)."""
    if not isinstance(n, int):
        raise TypeError(f"primality is defined for ints, not {type(n).__name__}")
    if n < 4:
        return n > 1
    return n % 2 == 1 and _least_prime_factor(n, 3) == n


def _least_prime_factor(n: int, d: int) -> int:
    """Least prime factor of the odd n > 1, given that n has no divisor in
    [3, d) for the odd d: the module's one trial-division loop."""
    while d * d <= n:
        if n % d == 0:
            return d
        d += 2
    return n


class _Value:
    """Base of the package's immutable value classes, the graph layer's
    ``LengthedQuotientGraph`` among them: what a frozen dataclass gives,
    without importing ``dataclasses``.  A subclass lists its fields, in
    order, in ``_fields`` and keeps them in ``__slots__``, but for a field
    every instance shares, a class attribute.  Its ``__init__`` checks its
    arguments and derives what follows from them (the graph's checks
    nothing), then sets the slots through ``object.__setattr__``.  A value
    with an unhashable field, such as a dict, does not hash.  Pickle and
    ``copy`` carry the slots as the state."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __getstate__(self) -> dict[str, object]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state: dict[str, object]) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)


class Place(_Value):
    """A place of Q: ``Place(p)`` for a finite prime p, ``Place(None)`` for oo."""

    __slots__ = _fields = ("prime",)

    def __init__(self, prime: int | None = None) -> None:
        if prime is not None and not is_prime(prime):
            raise ValueError(f"{prime} is not prime")
        object.__setattr__(self, "prime", prime)

    @classmethod
    def _proven(cls, n: int) -> "Place":
        """The Place of n, which the caller has already proven prime: built
        without proving it again."""
        place = object.__new__(cls)
        object.__setattr__(place, "prime", n)
        return place

    # the base's hash and eq build the tuple (prime,) for each side on
    # every call
    def __hash__(self) -> int:
        return hash(self.prime)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Place):
            return self.prime == other.prime
        return NotImplemented

    @property
    def is_finite(self) -> bool:
        return self.prime is not None

    def __str__(self) -> str:
        return "inf" if self.prime is None else str(self.prime)


INFINITY = Place(None)


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of the int n != 0, in ascending order."""
    if not isinstance(n, int):
        raise TypeError(f"factoring is defined for ints, not {type(n).__name__}")
    if n == 0:
        raise ValueError("0 has no prime factorization")
    n = abs(n)
    out: list[int] = []
    if n % 2 == 0:
        out.append(2)
        n //= n & -n  # the largest power of 2 dividing n
    d = 3
    while n > 1:
        d = _least_prime_factor(n, d)
        out.append(d)
        while n % d == 0:
            n //= d
    return tuple(out)


def is_squarefree(n: int) -> bool:
    return n != 0 and math.prod(prime_factors(n)) == abs(n)


def valuation(n: int, p: int) -> tuple[int, int]:
    """Write the int n = p^e * u with p not dividing u; return (e, u)."""
    if not isinstance(n, int):
        raise TypeError(f"valuations are defined for ints, not {type(n).__name__}")
    if n == 0:
        raise ValueError("the valuation of 0 is undefined")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _valuation(n, p)


def _valuation(n: int, p: int) -> tuple[int, int]:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, by Euler's criterion."""
    _check_ints("Legendre symbols are", a)
    if not is_prime(p) or p == 2:
        raise ValueError("legendre symbol needs an odd prime modulus")
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else int(r)


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n): the Jacobi symbol extended to all moduli.

    Multiplicative in n, agrees with ``legendre`` for odd prime n, and at
    n = 2 equals 0 for even a, +1 for a = +-1 mod 8, -1 for a = +-3 mod 8.
    """
    _check_ints("Kronecker symbols are", a, n)
    return _kronecker(a, n)


def _kronecker(a: int, n: int) -> int:
    """``kronecker`` for ints a and n, unchecked."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    e = 0
    while n % 2 == 0:
        n //= 2
        e += 1
    if e:
        if a % 2 == 0:
            return 0
        if e % 2 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def hilbert_symbol(a: int, b: int, v: Place) -> int:
    """Hilbert symbol (a,b)_v, +1 or -1, by the classical closed formulas.

    (a,b)_v = +1 exactly when z^2 = a x^2 + b y^2 has a nontrivial solution
    over the completion of Q at v.  At the archimedean place the symbol is
    -1 iff both arguments are negative.  At an odd prime p, with
    a = p^alpha u and b = p^beta w,

        (a,b)_p = (-1)^(alpha beta (p-1)/2) (u/p)^beta (w/p)^alpha ,

    and at p = 2, with odd parts u and w,

        (a,b)_2 = (-1)^(eps(u) eps(w) + alpha omega(w) + beta omega(u)) ,

    where eps(x) = (x-1)/2 and omega(x) = (x^2-1)/8 taken mod 2.
    """
    _check_ints("Hilbert symbols are", a, b)
    _check_place(v)
    return _hilbert_symbol(a, b, v)


def _hilbert_symbol(a: int, b: int, v: Place) -> int:
    """``hilbert_symbol`` for ints a and b, unchecked."""
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol needs nonzero arguments")
    if v.prime is None:
        return -1 if (a < 0 and b < 0) else 1
    p = v.prime  # proven prime when the Place was built
    alpha, u = _valuation(a, p)
    beta, w = _valuation(b, p)
    if p == 2:
        eps_u = ((u - 1) // 2) % 2
        eps_w = ((w - 1) // 2) % 2
        omega_u = ((u * u - 1) // 8) % 2
        omega_w = ((w * w - 1) // 8) % 2
        exponent = (eps_u * eps_w + alpha * omega_w + beta * omega_u) % 2
        return -1 if exponent else 1
    sign = 1
    if (alpha * beta * ((p - 1) // 2)) % 2:
        sign = -sign
    if beta % 2:
        sign *= _kronecker(u, p)
    if alpha % 2:
        sign *= _kronecker(w, p)
    return sign


# Largest residue ring the oracle will scan.  The scans are pure-Python
# loops over the squares mod n, so this bounds the search time.
_MAX_SEARCH_MODULUS = 1 << 20


# 32 moduli cover a sweep over small places; one table (8 bytes per distinct
# square plus a 1-byte mask) holds at most ~5.3 MB
@lru_cache(maxsize=32)
def _square_tables(n: int) -> tuple[Sequence[int], bytes]:
    from array import array  # only this test oracle needs it

    is_square = bytearray(n)
    for r in range(n // 2 + 1):  # r and n - r have the same square
        is_square[r * r % n] = 1
    return array("q", compress(range(n), is_square)), bytes(is_square)


def _primitive_solution_exists(a: int, b: int, n: int) -> bool:
    # A primitive triple mod n = p^k has a unit coordinate.  It is x or y:
    # were both divisible by p, so would be z^2 = a x^2 + b y^2.  Unit
    # rescaling moves that coordinate to 1, so two one-parameter scans are
    # exhaustive.
    squares, is_square = _square_tables(n)
    if any(is_square[(a + b * s) % n] for s in squares):  # x = 1
        return True
    return any(is_square[(a * s + b) % n] for s in squares)  # y = 1


def hilbert_symbol_oracle(a: int, b: int, v: Place) -> int:
    """Decide (a,b)_v by direct search, independently of the closed formulas.

    Over R this is a sign check.  Over Q_p, the form z^2 - a x^2 - b y^2 has
    a nontrivial zero iff it has a primitive zero mod p^k for k beyond the
    Newton lifting bound: at a primitive residue zero the gradient has
    valuation at most m = max(val_p a, val_p b) for odd p (m + 1 at p = 2),
    so k = 2m + 1 (resp. 2m + 3) guarantees every primitive residue zero
    lifts to Z_p; conversely a p-adic zero rescales to a primitive one and
    reduces.  The search itself is an exhaustive scan of the residue ring.
    """
    _check_place(v)
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol needs nonzero arguments")
    if v.prime is None:
        return -1 if (a < 0 and b < 0) else 1
    p = v.prime
    m = max(valuation(a, p)[0], valuation(b, p)[0])
    k = (3 if p == 2 else 1) + 2 * m
    n = p**k
    if n > _MAX_SEARCH_MODULUS:
        raise ValueError(f"search modulus {p}^{k} exceeds the exhaustive budget")
    return 1 if _primitive_solution_exists(a % n, b % n, n) else -1
