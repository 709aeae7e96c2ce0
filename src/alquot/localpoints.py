"""Local existence of degree-1 rational divisor classes on the quotients.

For the quotient curves V/w_p and V/w_q of the Shimura curve of
discriminant pq, this module decides place by place whether a degree-1
divisor class rational over the completion exists, and assembles the
answers into a deficiency ledger for V/w_p.

Three of the four ledger entries are computed from quaternion data:

* over R, existence is equivalent to Q(sqrt(p)) splitting the algebra;
* over Q_p (the quotient's own prime) the quotient is a Mumford curve,
  which always carries such a class -- this is the one entry whose proof
  is cited rather than recomputed, and it is labeled as such;
* over Q_q the criterion is an isomorphism test between the interchanged
  algebra and one of two explicit symbol algebras.

Every remaining finite place is covered uniformly by a known fact about
curves with good reduction there, recorded as a single symbolic entry.
Each entry carries its source so a certificate can be audited for what
was computed versus what was cited.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .ntheory import INFINITY, Place
from .quaternion import (
    QuaternionAlgebra,
    _interchange,
    _quad_field_splits,
    _ramified_places_among,
    is_isomorphic,
)
from .shimura import AdmissiblePair, _pair_algebra

__all__ = [
    "StatusSource",
    "LocalStatus",
    "DeficiencyLedger",
    "pic1_real",
    "pic1_at_own_prime",
    "pic1_at_other_prime",
    "deficiency_ledger",
]


class StatusSource(Enum):
    """How a ledger entry was decided."""

    REAL_SPLITTING = "real-splitting"
    OWN_PRIME_UNIFORMIZATION = "own-prime-uniformization"
    INTERCHANGE_CRITERION = "interchange-criterion"
    GOOD_REDUCTION_FACT = "good-reduction-fact"


@dataclass(frozen=True)
class LocalStatus:
    """Verdict at one place; ``place=None`` is the symbolic entry covering
    every finite place away from the discriminant."""

    place: Place | None
    pic1_nonempty: bool
    source: StatusSource

    def __post_init__(self) -> None:
        if self.source is StatusSource.OWN_PRIME_UNIFORMIZATION and not self.pic1_nonempty:
            raise ValueError("the own-prime entry is always non-deficient")
        if self.source is StatusSource.GOOD_REDUCTION_FACT and self.place is not None:
            raise ValueError("the good-reduction fact covers only the symbolic entry")

    @property
    def deficient(self) -> bool:
        return not self.pic1_nonempty


@dataclass(frozen=True)
class DeficiencyLedger:
    """Status of V/w_p at oo, p, q, and (symbolically) everywhere else."""

    at_infinity: LocalStatus
    at_p: LocalStatus
    at_q: LocalStatus
    elsewhere: LocalStatus

    def __post_init__(self) -> None:
        if self.at_infinity.place != INFINITY:
            raise ValueError("first entry must sit at the archimedean place")
        if self.elsewhere.place is not None:
            raise ValueError("the residual entry must be symbolic")
        if self.elsewhere.deficient:
            raise ValueError("the residual entry is never deficient")

    def entries(self) -> tuple[LocalStatus, ...]:
        return (self.at_infinity, self.at_p, self.at_q, self.elsewhere)

    @property
    def deficient_count(self) -> int:
        return sum(1 for s in self.entries() if s.deficient)

    def deficient_places(self) -> tuple[Place, ...]:
        return tuple(s.place for s in self.entries() if s.deficient)


# 2pq is the 2ab of both symbol algebras of the interchange criterion, so
# their candidate places are 2, p and q
_TWO = Place(2)


def pic1_real(p: int, q: int, quotient_prime: int) -> bool:
    """Degree-1 classes over R on the quotient by w_{quotient_prime}.

    Existence is equivalent to Q(sqrt(d)) splitting the algebra of
    discriminant pq, where d is the prime defining the involution.
    """
    B = _pair_algebra(p, q)
    if quotient_prime not in (p, q):
        raise ValueError("the quotient prime must divide the discriminant")
    return _quad_field_splits(quotient_prime, B)


def pic1_at_own_prime() -> bool:
    """Degree-1 classes over Q_p on V/w_p always exist.

    The quotient is an untwisted Mumford curve over Z_p, and combining
    points over unramified extensions of coprime degrees yields a rational
    divisor of degree 1.  The conclusion is taken as fact here; ledgers
    record it under OWN_PRIME_UNIFORMIZATION so it is auditable.
    """
    return True


def pic1_at_other_prime(p: int, q: int) -> bool:
    """Degree-1 classes over Q_p on the quotient by the *other* prime q.

    Decided by the interchange criterion: the algebra obtained from B by
    exchanging invariants at p and oo must be isomorphic to B(-1,-pq) or
    to B(-p,-q).
    """
    B = _pair_algebra(p, q)
    P = next(v for v in B.ram_set if v.prime == p)
    return _pic1_at_other_prime(P, q, B)


def _pic1_at_other_prime(P: Place, q: int, B: QuaternionAlgebra) -> bool:
    """``pic1_at_other_prime`` at the Place P of p, for the algebra B of
    discriminant pq."""
    p = P.prime
    swapped = _interchange(B, P)
    candidates = (_TWO, *B.ram_set)
    return any(
        is_isomorphic(swapped, QuaternionAlgebra(_ramified_places_among(a, b, candidates)))
        for a, b in ((-1, -p * q), (-p, -q))
    )


def deficiency_ledger(pair: AdmissiblePair) -> DeficiencyLedger:
    """Full local record for V/w_p of an admissible pair."""
    return _deficiency_ledger(pair, _pair_algebra(pair.p, pair.q))


def _deficiency_ledger(pair: AdmissiblePair, B: QuaternionAlgebra) -> DeficiencyLedger:
    """``deficiency_ledger`` for the pair's algebra B = {p, q}, whose Places
    of p and q the entries reuse."""
    place = {v.prime: v for v in B.ram_set}
    P, Q = place[pair.p], place[pair.q]
    real = _quad_field_splits(pair.p, B)  # pic1_real(p, q, p)
    return DeficiencyLedger(
        at_infinity=LocalStatus(INFINITY, real, StatusSource.REAL_SPLITTING),
        at_p=LocalStatus(P, pic1_at_own_prime(), StatusSource.OWN_PRIME_UNIFORMIZATION),
        at_q=LocalStatus(Q, _pic1_at_other_prime(Q, pair.p, B), StatusSource.INTERCHANGE_CRITERION),
        elsewhere=LocalStatus(None, True, StatusSource.GOOD_REDUCTION_FACT),
    )
