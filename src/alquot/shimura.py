"""Genus bookkeeping for Shimura curves and their Atkin-Lehner quotients.

For distinct odd primes p, q let V be the Shimura curve attached to a
maximal order in the indefinite quaternion algebra of discriminant pq.
This module computes the genus of V, the number e(p) of fixed points of
the Atkin-Lehner involution w_p, and the genus of the quotient V/w_p via
Riemann-Hurwitz, together with the admissibility test

    p = 5 mod 24,  q = 5 mod 12,  p != q,  (p/q) = -1

under which the parity pipeline operates.  Genus formulas are evaluated
exactly, as 12 times their value in integers, with mandatory integrality
checks, so a congruence-hypothesis violation surfaces as an error instead
of a wrong number.

The entry points here and in ``localpoints`` build B = {p, q} through
``_pair_algebra``, which owns the hypothesis that p and q are distinct
odd primes and proves them prime as it builds their Places.  They
delegate to private cores that take what a certificate already holds: B,
built once per certificate, and h(-4p), which belongs to the prime p and
so is computed once per prime when a table shares it.
``_genus_quotient(pair, B, h)`` is the core every certificate runs; it
holds the integrity checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ntheory import is_prime, kronecker
from .quadforms import class_number
from .quaternion import QuaternionAlgebra, _quad_field_splits

__all__ = [
    "AdmissiblePair",
    "AdmissibilityRejection",
    "GenusData",
    "check_admissible",
    "genus_VB",
    "fixed_points_e",
    "genus_quotient",
]


@dataclass(frozen=True)
class AdmissiblePair:
    """A pair (p, q) satisfying the hypotheses of the parity pipeline."""

    p: int
    q: int

    def __post_init__(self) -> None:
        failure = _admissibility_failure(self.p, self.q)
        if failure is not None:
            raise _Inadmissible(AdmissibilityRejection(self.p, self.q, failure))

    @property
    def disc(self) -> int:
        return self.p * self.q


@dataclass(frozen=True)
class AdmissibilityRejection:
    """Structured refusal naming the first failed hypothesis."""

    p: int
    q: int
    reason: str


class _Inadmissible(ValueError):
    """Raised by ``AdmissiblePair`` with the rejection that ``check_admissible`` returns."""

    def __str__(self) -> str:
        rejection = self.args[0]
        return f"({rejection.p}, {rejection.q}) inadmissible: {rejection.reason}"


def _admissibility_failure(p: int, q: int) -> str | None:
    if not is_prime(p):
        return "p is not prime"
    if p % 24 != 5:
        return "p ≢ 5 mod 24"
    if not is_prime(q):
        return "q is not prime"
    if q % 12 != 5:
        return "q ≢ 5 mod 12"
    if p == q:
        return "p and q must be distinct"
    if kronecker(p, q) != -1:
        return "p is a square mod q"
    return None


def check_admissible(p: int, q: int) -> AdmissiblePair | AdmissibilityRejection:
    """Validate the pipeline hypotheses; rejection is a value, not an error."""
    try:
        return AdmissiblePair(p, q)
    except _Inadmissible as exc:
        return exc.args[0]


@dataclass(frozen=True)
class GenusData:
    """Genus of the covering curve, fixed points, and quotient genus.

    mass_half is (g_VB + 1)/2, the term the quotient genus subtracts
    e_p/4 from.
    """

    g_VB: int
    e_p: int
    g_quotient: int
    mass_half: int


def _pair_algebra(p: int, q: int) -> QuaternionAlgebra:
    """The algebra B of discriminant pq; building it proves p and q prime."""
    if p == q or p == 2 or q == 2:
        raise ValueError("the discriminant pq needs distinct odd primes p and q")
    return QuaternionAlgebra.from_ramified_places((p, q))


def genus_VB(p: int, q: int) -> int:
    """Genus of the Shimura curve of discriminant pq:

        g = 1 + (p-1)(q-1)/12 - e_2/4 - e_3/3

    with e_2 = prod(1 - (-4/l)) and e_3 = prod(1 - (-3/l)) over l in {p, q}.
    """
    _pair_algebra(p, q)  # for its guard and primality proofs alone
    return _genus_VB(p, q)


def _genus_VB(p: int, q: int) -> int:
    """``genus_VB`` for distinct odd primes the caller has already proven."""
    e2 = (1 - kronecker(-4, p)) * (1 - kronecker(-4, q))
    e3 = (1 - kronecker(-3, p)) * (1 - kronecker(-3, q))
    g12 = 12 + (p - 1) * (q - 1) - 3 * e2 - 4 * e3
    if g12 % 12 or g12 < 0:
        raise ValueError(f"genus formula gives non-integral value {g12}/12 for ({p}, {q})")
    return g12 // 12


def fixed_points_e(p: int, q: int) -> int:
    """Number of fixed points of w_p on the curve of discriminant pq.

    The fixed points are the points with complex multiplication by
    Z[sqrt(-p)]; for p = 1 mod 4 that order is maximal, so there are
    2 h(-4p) of them when Q(sqrt(-p)) splits the algebra and 0 otherwise.
    The p = 3 mod 4 case involves a second CM order and is not
    implemented; it is rejected rather than approximated.
    """
    if p % 4 != 1:
        raise ValueError("fixed point count implemented only for p = 1 mod 4")
    return _fixed_points_e(p, _pair_algebra(p, q), class_number(-4 * p))


def _fixed_points_e(p: int, B: QuaternionAlgebra, h: int) -> int:
    """``fixed_points_e`` for the algebra B of discriminant pq and h = h(-4p)."""
    return 2 * h if _quad_field_splits(-p, B) else 0


def genus_quotient(pair: AdmissiblePair) -> GenusData:
    """Genus of the quotient by w_p via Riemann-Hurwitz:

        g_quotient = (g_VB + 1)/2 - e_p/4 .

    Requires g_VB odd and 4 | e_p, both consequences of admissibility;
    violations raise instead of rounding.
    """
    return _genus_quotient(pair, _pair_algebra(pair.p, pair.q), class_number(-4 * pair.p))


def _genus_quotient(pair: AdmissiblePair, B: QuaternionAlgebra, h: int) -> GenusData:
    """``genus_quotient`` for the pair's algebra B = {p, q} and h = h(-4p),
    which the caller computes once and shares.  Every certificate runs the
    integrity checks here."""
    g = _genus_VB(pair.p, pair.q)
    e = _fixed_points_e(pair.p, B, h)
    if (g + 1) % 2:
        raise ValueError(f"(g_VB + 1)/2 is not integral for {pair}")
    if e % 4:
        raise ValueError(f"e(p) = {e} is not divisible by 4 for {pair}")
    mass_half = (g + 1) // 2
    g_quot = mass_half - e // 4
    if g_quot < 0:
        raise ValueError(f"negative quotient genus for {pair}")
    return GenusData(g_VB=g, e_p=e, g_quotient=g_quot, mass_half=mass_half)
