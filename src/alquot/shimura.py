"""Genus bookkeeping for Shimura curves and their Atkin-Lehner quotients.

For distinct odd primes p, q let V be the Shimura curve attached to a
maximal order in the indefinite quaternion algebra of discriminant pq.
This module computes the genus of V, the number e(p) of fixed points of
the Atkin-Lehner involution w_p, and the genus of the quotient V/w_p via
Riemann-Hurwitz, together with the admissibility test

    p = 5 mod 24,  q = 5 mod 12,  p != q,  (p/q) = -1

under which the parity pipeline operates.  The test is two rules: a
per-prime rule (p and q prime, each in its class) and a per-pair rule
(distinct, (p/q) = -1).  ``check_admissible`` and ``AdmissiblePair`` run
both, in that order.  ``_admissible_pairs``, the scan behind
``enumerate``, runs the per-prime rule once per candidate prime and the
per-pair rule once per candidate pair, and builds the pairs it admits
through ``AdmissiblePair._admitted``, which does not run the rules again.

Genus formulas are evaluated exactly, as 12 times their value in
integers, with mandatory integrality checks, so a congruence-hypothesis
violation surfaces as an error instead of a wrong number.

The int entry points here and in ``localpoints`` take p and q through
``_pair_places``, which owns the hypothesis that p and q are distinct odd
primes and proves them prime as it builds their Places.  The algebra B
of discriminant pq is its ramification set {p, q}, so those two Places
carry it: no algebra is built.  The entry points delegate to private
cores that take what a certificate already holds: the Places P and Q,
h(-4p), and the Eichler-Shimura factors ``_local_factors((l,))`` of
l = p and q, whose products the genus formula reads.  Every certificate
builds its genus as ``GenusData(_genus_VB(p, q, fp, fq),
_fixed_points_e(P, Q, h))``: ``_genus_VB`` holds the integrity check of
g_VB, and ``GenusData``, which derives the quotient genus, holds those of
Riemann-Hurwitz.
"""

from __future__ import annotations

from operator import mul
from typing import Iterator

from .ntheory import Place, _Value, is_prime, kronecker
from .quadforms import class_number
from .quaternion import _local_factors, _quad_field_splits

__all__ = [
    "AdmissiblePair",
    "AdmissibilityRejection",
    "GenusData",
    "check_admissible",
    "genus_VB",
    "fixed_points_e",
    "genus_quotient",
]


class AdmissiblePair(_Value):
    """A pair (p, q) satisfying the hypotheses of the parity pipeline."""

    __slots__ = _fields = ("p", "q")

    def __init__(self, p: int, q: int) -> None:
        failure = _admissibility_failure(p, q)
        if failure is not None:
            raise ValueError(f"({p}, {q}) inadmissible: {failure}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @classmethod
    def _admitted(cls, p: int, q: int) -> "AdmissiblePair":
        """The pair (p, q), which the caller has already put through both
        rules: built without running them again."""
        pair = object.__new__(cls)
        object.__setattr__(pair, "p", p)
        object.__setattr__(pair, "q", q)
        return pair

    @property
    def disc(self) -> int:
        return self.p * self.q


class AdmissibilityRejection(_Value):
    """Structured refusal naming the first failed hypothesis."""

    __slots__ = _fields = ("p", "q", "reason")

    def __init__(self, p: int, q: int, reason: str) -> None:
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "reason", reason)


# each prime of a pair lies in the class 5 mod its modulus
_MODULUS = {"p": 24, "q": 12}


def _prime_failure(role: str, n: int) -> str | None:
    """The per-prime rule for n as the pair's prime ``role`` ("p" or "q"):
    n is prime and n = 5 mod ``_MODULUS[role]``."""
    if not is_prime(n):
        return f"{role} is not prime"
    if n % _MODULUS[role] != 5:
        return f"{role} ≢ 5 mod {_MODULUS[role]}"
    return None


def _pair_failure(p: int, q: int) -> str | None:
    """The per-pair rule, for p and q that pass the per-prime rule."""
    if p == q:
        return "p and q must be distinct"
    if kronecker(p, q) != -1:
        return "p is a square mod q"
    return None


def _admissibility_failure(p: int, q: int) -> str | None:
    """The first failed hypothesis: the per-prime rule for p, then for q,
    then the per-pair rule."""
    return _prime_failure("p", p) or _prime_failure("q", q) or _pair_failure(p, q)


def check_admissible(p: int, q: int) -> AdmissiblePair | AdmissibilityRejection:
    """Validate the pipeline hypotheses; rejection is a value, not an error."""
    failure = _admissibility_failure(p, q)
    if failure is not None:
        return AdmissibilityRejection(p, q, failure)
    return AdmissiblePair._admitted(p, q)


def _admissible_pairs(bound: int) -> Iterator[AdmissiblePair]:
    """All admissible (p, q) with p <= bound and q <= bound, sorted, as a
    generator: the bound and each candidate prime are checked now, and
    each pair by the per-pair rule alone when it is drawn."""
    if not 0 < bound < 2**15:
        raise ValueError("bound must be a positive integer below 2^15")
    # The per-prime rule builds the lists, once per candidate of each class,
    # and the per-pair rule decides each candidate pair, so no prime is
    # proven per pair.  The ascending loops emit pairs in (p, q) order.
    ps = [p for p in range(5, bound + 1, _MODULUS["p"]) if _prime_failure("p", p) is None]
    qs = [q for q in range(5, bound + 1, _MODULUS["q"]) if _prime_failure("q", q) is None]
    return (AdmissiblePair._admitted(p, q) for p in ps for q in qs if _pair_failure(p, q) is None)


class GenusData(_Value):
    """Genus g_VB of the covering curve and the number e_p of fixed points
    of w_p, from which Riemann-Hurwitz derives, here and only here,

        g_quotient = mass_half - e_p/4,  mass_half = (g_VB + 1)/2 .

    g_VB and e_p nonnegative, g_VB odd, 4 | e_p and g_quotient >= 0 follow
    from admissibility; a violation raises instead of rounding.
    """

    __slots__ = _fields = ("g_VB", "e_p", "g_quotient", "mass_half")

    def __init__(self, g_VB: int, e_p: int) -> None:
        if g_VB < 0 or e_p < 0:
            raise ValueError(f"g_VB = {g_VB} and e(p) = {e_p} must be nonnegative")
        if g_VB % 2 == 0:
            raise ValueError(f"(g_VB + 1)/2 is not integral for g_VB = {g_VB}")
        if e_p % 4:
            raise ValueError(f"e(p) = {e_p} is not divisible by 4")
        mass_half = (g_VB + 1) // 2
        g_quotient = mass_half - e_p // 4
        if g_quotient < 0:
            raise ValueError(f"negative quotient genus for g_VB = {g_VB}, e(p) = {e_p}")
        object.__setattr__(self, "g_VB", g_VB)
        object.__setattr__(self, "e_p", e_p)
        object.__setattr__(self, "g_quotient", g_quotient)
        object.__setattr__(self, "mass_half", mass_half)


def _pair_places(p: int, q: int) -> tuple[Place, Place]:
    """The Places of p and q, the ramified places of the algebra B of
    discriminant pq.  Building them proves p and q prime."""
    if p == q or 2 in (p, q):
        raise ValueError("the discriminant pq needs distinct odd primes p and q")
    return Place(p), Place(q)


def genus_VB(p: int, q: int) -> int:
    """Genus of the Shimura curve of discriminant pq:

        g = 1 + (p-1)(q-1)/12 - e_2/4 - e_3/3

    with e_2 = prod(1 - (-4/l)) and e_3 = prod(1 - (-3/l)) over l in {p, q}.
    """
    _pair_places(p, q)  # for its guard and primality proofs alone
    return _genus_VB(p, q, _local_factors((p,)), _local_factors((q,)))


def _genus_VB(p: int, q: int, fp: tuple[int, int, int], fq: tuple[int, int, int]) -> int:
    """``genus_VB`` for distinct odd primes the caller has already proven,
    from their factors fp = ``_local_factors((p,))`` and fq, which a table
    computes once per prime.  The pair's factors are their products."""
    mass, e2, e3 = map(mul, fp, fq)
    g12 = 12 + mass - 3 * e2 - 4 * e3
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
    P, Q = _pair_places(p, q)
    return _fixed_points_e(P, Q, class_number(-4 * p))


def _fixed_points_e(P: Place, Q: Place, h: int) -> int:
    """``fixed_points_e`` at the Places P of p and Q of q, which carry the
    algebra of discriminant pq, for h = h(-4p)."""
    return 2 * h if _quad_field_splits(-P.prime, (P, Q)) else 0


def genus_quotient(pair: AdmissiblePair) -> GenusData:
    """Genus of the quotient by w_p via Riemann-Hurwitz:

        g_quotient = (g_VB + 1)/2 - e_p/4 .

    ``GenusData`` checks g_VB odd and 4 | e_p, both consequences of
    admissibility.  The pair's admission proved p and q, so their Places
    do not prove them again.
    """
    p, q = pair.p, pair.q
    g_VB = _genus_VB(p, q, _local_factors((p,)), _local_factors((q,)))
    return GenusData(g_VB, _fixed_points_e(Place._proven(p), Place._proven(q), class_number(-4 * p)))
