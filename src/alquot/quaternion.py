"""Rational quaternion algebras as ramification data.

A quaternion algebra B(a,b) over Q (basis 1, i, j, k with i^2 = a,
j^2 = b, ij = -ji = k) is classified up to isomorphism by the finite set
of places where it ramifies, which always has even cardinality.  This
module computes that set from a symbol pair, tests isomorphism as set
equality, exchanges the local invariants at a prime and infinity,
decides whether a quadratic field splits an algebra, and evaluates
Eichler's class number formula for the definite case.  The exchange rule
is stated once, in ``interchange``, which the interchange criterion of
``localpoints`` reads once, at import.  ``_local_factors``, the local
factors of Eichler's formula, is shared with the genus formula of
``shimura``.

Maximal orders, ideal classes and unit groups are deliberately absent:
the ramification set carries everything the rest of the package needs.
"""

from __future__ import annotations

import math
from typing import Iterable

from .ntheory import (
    INFINITY,
    Place,
    _Value,
    hilbert_symbol,
    is_squarefree,
    kronecker,
    prime_factors,
)

__all__ = [
    "QuaternionAlgebra",
    "ramified_places",
    "reduced_discriminant",
    "is_isomorphic",
    "interchange",
    "quad_field_splits",
    "eichler_class_number",
]


def ramified_places(a: int, b: int) -> frozenset[Place]:
    """Set of places v with (a,b)_v = -1.

    Only the archimedean place and the primes dividing 2ab can ramify, so
    the scan over those places is complete; the factors are proven prime.
    """
    if a == 0 or b == 0:
        raise ValueError("symbol entries must be nonzero")
    places = [INFINITY, *map(Place._proven, prime_factors(2 * a * b))]
    return frozenset(v for v in places if hilbert_symbol(a, b, v) == -1)


class QuaternionAlgebra(_Value):
    """A rational quaternion algebra, canonically its ramification set."""

    __slots__ = _fields = ("ram_set",)

    def __init__(self, ram_set: frozenset[Place]) -> None:
        object.__setattr__(self, "ram_set", ram_set)
        self.__post_init__()

    # the one check kept as a hook: perfbench's tracer counts algebras built through it
    def __post_init__(self) -> None:
        if len(self.ram_set) % 2:
            raise ValueError("a ramification set has even cardinality")

    @classmethod
    def from_symbols(cls, a: int, b: int) -> "QuaternionAlgebra":
        return cls(ramified_places(a, b))

    @classmethod
    def from_ramified_places(cls, places: Iterable[Place | int | None]) -> "QuaternionAlgebra":
        """Build from places given as Place values, primes, or None for oo."""
        normalized = frozenset(
            v if isinstance(v, Place) else Place(v) for v in places
        )
        return cls(normalized)

    @property
    def is_definite(self) -> bool:
        return INFINITY in self.ram_set


def reduced_discriminant(B: QuaternionAlgebra) -> int:
    """Product of the finite ramified primes."""
    d = 1
    for v in B.ram_set:
        if v.prime is not None:
            d *= v.prime
    return d


def is_isomorphic(B1: QuaternionAlgebra, B2: QuaternionAlgebra) -> bool:
    """Isomorphism over Q is equality of ramification sets."""
    return B1.ram_set == B2.ram_set


def interchange(B: QuaternionAlgebra, p: int) -> QuaternionAlgebra:
    """Exchange the local invariants of B at the odd prime p and at oo.

    Membership of Place(p) and of the archimedean place in the ramification
    set are swapped; everything else is untouched.  Applied to an indefinite
    algebra ramified at p this yields a definite algebra unramified at p,
    and the operation is an involution.
    """
    if p == 2:
        raise ValueError("interchange is defined at an odd prime")
    held = [v for v in B.ram_set if v.prime == p]
    fin = held[0] if held else Place(p)  # Place(p) proves p
    return QuaternionAlgebra(frozenset(
        INFINITY if v.prime == p else fin if v.prime is None else v for v in B.ram_set
    ))


def quad_field_splits(d: int, B: QuaternionAlgebra) -> bool:
    """Whether Q(sqrt(d)) splits B, for squarefree d not in {0, 1}.

    Q(sqrt(d)) embeds in (equivalently, splits) B exactly when no ramified
    place of B splits in the field: a finite prime l splits iff the
    Kronecker symbol of the field discriminant at l is +1, and the
    archimedean place splits iff d > 0.
    """
    if d in (0, 1) or not is_squarefree(d):
        raise ValueError("d must be squarefree and define a quadratic field")
    return _quad_field_splits(d, B.ram_set)


def _quad_field_splits(d: int, ram: Iterable[Place]) -> bool:
    """``quad_field_splits`` for a d known to be squarefree, such as a prime
    or its negative, so the caller skips factoring it again, and for the
    algebra whose ramified places are ``ram``: a certificate passes the
    Places (P, Q) that carry B = {p, q}, so no algebra is built."""
    disc = d if d % 4 == 1 else 4 * d
    for v in ram:
        if v.prime is not None:
            if kronecker(disc, v.prime) == 1:
                return False
        elif d > 0:
            return False
    return True


def eichler_class_number(D: int) -> int:
    """Class number of a maximal order in the definite algebra of reduced
    discriminant D (squarefree), by Eichler's formula:

        H(D) = prod(l-1)/12 + prod(1 - (-4/l))/4 + prod(1 - (-3/l))/3

    with products over the primes l dividing D, evaluated exactly as 12 H(D)
    in integers.  A non-integral result means D is not the reduced
    discriminant of a definite maximal order and raises.
    """
    primes = prime_factors(D) if D >= 1 else ()
    if math.prod(primes) != D:
        raise ValueError("D must be a squarefree positive integer")
    return _eichler_formula(primes)


def _local_factors(primes: Iterable[int]) -> tuple[int, int, int]:
    """The Eichler-Shimura local data of the distinct primes ``primes``:
    (prod(l-1), prod(1 - (-4/l)), prod(1 - (-3/l))), shared by Eichler's
    class number formula and the genus formula of ``shimura``."""
    mass, e2, e3 = 1, 1, 1
    for ell in primes:
        mass *= ell - 1
        e2 *= 1 - kronecker(-4, ell)
        e3 *= 1 - kronecker(-3, ell)
    return mass, e2, e3


def _eichler_formula(primes: tuple[int, ...]) -> int:
    """Eichler's formula for the squarefree D whose primes are ``primes``
    (distinct), so callers that know the factorization skip factoring D.
    The integrality check is the same for every caller."""
    mass, e2, e3 = _local_factors(primes)
    h12 = mass + 3 * e2 + 4 * e3
    if h12 % 12 or h12 <= 0:
        raise ValueError(f"Eichler formula gives non-integral value {h12}/12 for D={math.prod(primes)}")
    return h12 // 12
