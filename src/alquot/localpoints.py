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

The entry at p reads nothing but p (``_own_prime_entry``).  The entry
at oo takes one of two values and the symbolic entry one, so both are
built once, at import, and shared, as are the interchanged algebra's
memberships at oo, 2, p and q, which ``interchange`` gives alike for
every pair.  The symbolic entry is a fixed field of ``DeficiencyLedger``,
not an argument.  ``LocalStatus`` checks each entry when it is built,
and each ledger finds its deficient places once, when it is built.
"""

from __future__ import annotations

from enum import Enum

from .ntheory import INFINITY, Place, _Value, _hilbert_symbol
from .quaternion import QuaternionAlgebra, _quad_field_splits, interchange
from .shimura import AdmissiblePair, _pair_places

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


class LocalStatus(_Value):
    """Verdict at one place; ``place=None`` is the symbolic entry covering
    every finite place away from the discriminant."""

    __slots__ = _fields = ("place", "pic1_nonempty", "source")

    def __init__(self, place: Place | None, pic1_nonempty: bool, source: StatusSource) -> None:
        if source is StatusSource.OWN_PRIME_UNIFORMIZATION and not pic1_nonempty:
            raise ValueError("the own-prime entry is always non-deficient")
        if source is StatusSource.GOOD_REDUCTION_FACT and place is not None:
            raise ValueError("the good-reduction fact covers only the symbolic entry")
        object.__setattr__(self, "place", place)
        object.__setattr__(self, "pic1_nonempty", pic1_nonempty)
        object.__setattr__(self, "source", source)

    @property
    def deficient(self) -> bool:
        return not self.pic1_nonempty


# the symbolic entry, the same in every ledger
_ELSEWHERE = LocalStatus(None, True, StatusSource.GOOD_REDUCTION_FACT)


class DeficiencyLedger(_Value):
    """Status of V/w_p at oo, p and q, and symbolically everywhere else:
    ``elsewhere`` is not an argument but the fixed, shared ``_ELSEWHERE``,
    a class attribute.  The deficient places are found once, when the
    ledger is built, and ``deficient_count`` is their number; as they
    follow from the entries, equality and the repr skip them."""

    __slots__ = ("at_infinity", "at_p", "at_q", "_deficient")
    _fields = ("at_infinity", "at_p", "at_q", "elsewhere")
    elsewhere = _ELSEWHERE

    def __init__(self, at_infinity: LocalStatus, at_p: LocalStatus, at_q: LocalStatus) -> None:
        if at_infinity.place != INFINITY:
            raise ValueError("first entry must sit at the archimedean place")
        deficient = tuple(s.place for s in (at_infinity, at_p, at_q, self.elsewhere) if s.deficient)
        object.__setattr__(self, "at_infinity", at_infinity)
        object.__setattr__(self, "at_p", at_p)
        object.__setattr__(self, "at_q", at_q)
        object.__setattr__(self, "_deficient", deficient)

    @property
    def deficient_count(self) -> int:
        return len(self._deficient)

    def entries(self) -> tuple[LocalStatus, ...]:
        return (self.at_infinity, self.at_p, self.at_q, self.elsewhere)

    def deficient_places(self) -> tuple[Place, ...]:
        return self._deficient


# the one place of the interchange criterion that B does not hold
_TWO = Place(2)

# the entry at oo, by whether Q(sqrt(p)) splits B: one of two in every ledger
_AT_INFINITY = {real: LocalStatus(INFINITY, real, StatusSource.REAL_SPLITTING) for real in (False, True)}

# Whether the algebra B = {p, q} interchanged at p ramifies at oo, 2, p and
# q.  The exchange rule reads only which of those places are p and q, so
# this is the same for any distinct odd primes p and q and is read once,
# here, at (3, 5).
_SWAPPED = tuple(
    v in interchange(QuaternionAlgebra(frozenset({Place(3), Place(5)})), 3).ram_set
    for v in (INFINITY, _TWO, Place(3), Place(5))
)


def pic1_real(p: int, q: int, quotient_prime: int) -> bool:
    """Degree-1 classes over R on the quotient by w_{quotient_prime}.

    Existence is equivalent to Q(sqrt(d)) splitting the algebra of
    discriminant pq, where d is the prime defining the involution.
    """
    places = _pair_places(p, q)
    if quotient_prime not in (p, q):
        raise ValueError("the quotient prime must divide the discriminant")
    return _quad_field_splits(quotient_prime, places)


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
    return _pic1_at_other_prime(*_pair_places(p, q))


def _pic1_at_other_prime(P: Place, Q: Place) -> bool:
    """``pic1_at_other_prime`` at the Places P of p and Q of q, the
    ramified places of the algebra B of discriminant pq.

    Both symbol algebras have 2ab = 2pq, so they and the interchanged
    algebra ramify only among oo, 2, p and q: agreeing at those four places
    is isomorphism.  The interchanged algebra is not built per pair: its
    memberships at those places are the same for every pair, ``_SWAPPED``,
    which ``interchange`` gave once, at import.  Every Hilbert symbol
    compared is computed for the pair, and each comparison stops at the
    first place of disagreement, so no ramification set is built for a
    symbol algebra either.
    """
    places = (INFINITY, _TWO, P, Q)
    p, q = P.prime, Q.prime
    for a, b in ((-1, -p * q), (-p, -q)):
        for held, v in zip(_SWAPPED, places):
            if held != (_hilbert_symbol(a, b, v) == -1):
                break
        else:
            return True
    return False


def deficiency_ledger(pair: AdmissiblePair) -> DeficiencyLedger:
    """Full local record for V/w_p of an admissible pair.  The pair's
    admission proved p and q, so their Places do not prove them again."""
    P, Q = Place._proven(pair.p), Place._proven(pair.q)
    return _deficiency_ledger(_own_prime_entry(P), Q)


def _own_prime_entry(P: Place) -> LocalStatus:
    """The entry of V/w_p at its own prime, the Place P of p: it reads
    nothing else, so a table builds it once per p."""
    return LocalStatus(P, pic1_at_own_prime(), StatusSource.OWN_PRIME_UNIFORMIZATION)


def _deficiency_ledger(at_p: LocalStatus, Q: Place) -> DeficiencyLedger:
    """``deficiency_ledger`` from the entry at p, ``_own_prime_entry(P)``,
    and the Place Q of q.  P and Q carry the algebra B = {p, q} that every
    entry is read from; the entries at oo and elsewhere are shared."""
    P = at_p.place
    real = _quad_field_splits(P.prime, (P, Q))  # pic1_real(p, q, p)
    return DeficiencyLedger(
        at_infinity=_AT_INFINITY[real],
        at_p=at_p,
        at_q=LocalStatus(Q, _pic1_at_other_prime(Q, P), StatusSource.INTERCHANGE_CRITERION),
    )
