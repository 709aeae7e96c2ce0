"""Jacobian parity certificates for Atkin-Lehner quotient curves.

The Poonen-Stoll criterion reduces the parity of the Shafarevich-Tate
order of a curve's jacobian to counting deficient places: places whose
completion carries no rational divisor of degree g - 1.
``_certify_table`` is the one construction path: it assembles genus data
and a deficiency ledger for each ``AdmissiblePair`` of a table, and the
certificate reads its verdict off the ledger; every certificate cites the
one list ``STANDING_ASSUMPTIONS`` of the external facts the argument
leans on.  ``ParityCertificate.for_pair`` is the certificate of the
one-pair table, and ``certify`` checks admissibility of two integers once
and then calls it.  What the table computes once per prime, and why it
holds nothing per pair, is stated on ``_certify_table``.

A value type derives what follows from the facts it is given:
``GenusData`` the quotient genus, ``ParityCertificate`` the verdict,
``SieveReport`` its flag and bounds.

``enumerate_admissible`` lists the admissible pairs of a box, scanned by
``shimura._admissible_pairs``, which owns the rules of admissibility:
this module states no congruence.  ``hyperelliptic_sieve`` reports,
with its witness numbers, the point-count bound that rules out
hyperellipticity of the quotient for all but finitely many pairs.  The
flag alone is ``_hyperelliptic_flag``, which both the sieve and the CLI
records read.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Iterator

from .localpoints import DeficiencyLedger, _deficiency_ledger, _own_prime_entry
from .ntheory import Place, _Value
from .quadforms import class_number
from .quaternion import _eichler_formula, _local_factors
from .shimura import (
    AdmissibilityRejection,
    AdmissiblePair,
    GenusData,
    _admissible_pairs,
    _fixed_points_e,
    _genus_VB,
    check_admissible,
)

__all__ = [
    "Verdict",
    "HyperellipticFlag",
    "ParityCertificate",
    "SieveReport",
    "STANDING_ASSUMPTIONS",
    "HYPERELLIPTIC_PRODUCT_BOUND",
    "F4_POINT_CAP",
    "poonen_stoll_verdict",
    "certify",
    "enumerate_admissible",
    "hyperelliptic_sieve",
]


class Verdict(Enum):
    EVEN = "even"
    ODD = "odd"


class HyperellipticFlag(Enum):
    POSSIBLY_HYPERELLIPTIC = "possibly_hyperelliptic"
    NOT_HYPERELLIPTIC = "not_hyperelliptic"


# Facts used but not recomputed; every certificate carries these labels.
STANDING_ASSUMPTIONS: tuple[str, ...] = (
    "parity criterion: the jacobian verdict is odd exactly when the deficient-place count is odd",
    "degree-2 rational divisor classes exist on the covering curve over every completion of Q",
    "degree-1 rational divisor classes exist on the covering curve over Q_l for finite l prime to the discriminant",
    "the quotient curve acquires a degree-1 rational divisor class over Q_p at its own prime via p-adic uniformization",
)

# A hyperelliptic curve with good reduction at 2 has at most 2 * #P^1(F_4)
# points over F_4.
F4_POINT_CAP = 10

# A hyperelliptic quotient forces (p-1)(q-1) <= 24 * F4_POINT_CAP = 240.
HYPERELLIPTIC_PRODUCT_BOUND = 24 * F4_POINT_CAP


class ParityCertificate(_Value):
    """Complete trace of one parity computation.

    The ledger speaks about degree g-1 divisor classes via degree 1: the
    bridge needs the quotient genus to be even (so g-1 is odd) together
    with the everywhere-existence of degree-2 classes, and the evenness is
    asserted here, where the genus and the ledger meet.  The verdict is
    not given: it is ``poonen_stoll_verdict(ledger)``, computed here, once.
    Nor are the assumptions: every certificate cites the fixed
    ``STANDING_ASSUMPTIONS``, a class attribute.
    """

    __slots__ = ("pair", "genus", "ledger", "verdict")
    _fields = (*__slots__, "assumptions")
    assumptions = STANDING_ASSUMPTIONS

    def __init__(self, pair: AdmissiblePair, genus: GenusData, ledger: DeficiencyLedger) -> None:
        if genus.g_quotient % 2:
            raise ValueError("degree bridge needs an even quotient genus")
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "ledger", ledger)
        object.__setattr__(self, "verdict", poonen_stoll_verdict(ledger))

    @classmethod
    def for_pair(cls, pair: AdmissiblePair) -> "ParityCertificate":
        """Genus, ledger and verdict for a pair that is already admissible:
        the certificate of the one-pair table."""
        (cert,) = _certify_table((pair,))
        return cert


def poonen_stoll_verdict(ledger: DeficiencyLedger) -> Verdict:
    """Odd exactly when the number of deficient places is odd."""
    return Verdict.ODD if ledger.deficient_count % 2 else Verdict.EVEN


def certify(p: int, q: int) -> ParityCertificate | AdmissibilityRejection:
    """Certify the parity verdict for V/w_p, or reject the pair.

    Only pairs satisfying the admissibility hypotheses are certified;
    outside that regime no verdict is extrapolated.
    """
    checked = check_admissible(p, q)
    if isinstance(checked, AdmissibilityRejection):
        return checked
    return ParityCertificate.for_pair(checked)


def _certify_table(pairs: Iterable[AdmissiblePair]) -> Iterator[ParityCertificate]:
    """The certificate of each pair, in order: the one construction path,
    and the one statement of what a table computes how often.

    * Per prime: the primality proof runs once, when a pair is admitted,
      and the Place trusts it; the Place and the Eichler-Shimura factors
      the genus multiplies are computed once per table.
    * Per run of pairs with equal p: h(-4p) and the ledger's entry at p,
      which reads nothing but p, so pairs in (p, q) order, as
      ``enumerate_admissible`` returns them, need one of each per distinct
      p, and only the current ones are held.
    * Per pair: the genus and the ledger's entry at q.  The Places of p
      and q carry B = {p, q} to both, so no algebra is built.
    * Once, at import: the ledger's entries at oo and elsewhere, and the
      interchanged algebra's memberships at oo, 2, p and q
      (``localpoints``).

    Nothing is kept per pair, so the pairs may come from a generator and
    a table's memory does not grow with its length."""
    primes: dict[int, tuple[Place, tuple[int, int, int]]] = {}

    def facts(n: int) -> tuple[Place, tuple[int, int, int]]:
        return primes.get(n) or primes.setdefault(n, (Place._proven(n), _local_factors((n,))))

    p = None
    for pair in pairs:
        if pair.p != p:
            p = pair.p
            P, fp = facts(p)
            h, at_p = class_number(-4 * p), _own_prime_entry(P)
        Q, fq = facts(pair.q)
        yield ParityCertificate(
            pair=pair,
            genus=GenusData(_genus_VB(p, pair.q, fp, fq), _fixed_points_e(P, Q, h)),
            ledger=_deficiency_ledger(at_p, Q),
        )


def enumerate_admissible(bound: int) -> list[AdmissiblePair]:
    """All admissible (p, q) with p <= bound and q <= bound, sorted."""
    return list(_admissible_pairs(bound))


def _hyperelliptic_flag(pair: AdmissiblePair) -> HyperellipticFlag:
    """The quotient can be hyperelliptic only if
    (p-1)(q-1) <= HYPERELLIPTIC_PRODUCT_BOUND."""
    if (pair.p - 1) * (pair.q - 1) > HYPERELLIPTIC_PRODUCT_BOUND:
        return HyperellipticFlag.NOT_HYPERELLIPTIC
    return HyperellipticFlag.POSSIBLY_HYPERELLIPTIC


class SieveReport(_Value):
    """Hyperellipticity sieve outcome with its witness numbers.

    Given the pair and definite_class_number = H(2pq), the number of
    supersingular points of the reduction mod 2, it computes the rest:
    flag, by ``_hyperelliptic_flag``; genus_product = (p-1)(q-1); the
    supersingular_lower_bound = ceil(H/2) of them that survive on the
    quotient, to be compared against F4_POINT_CAP.  The refined bound
    ceil((p-1)(q-1)/24) > F4_POINT_CAP holds exactly when (p-1)(q-1) > 240,
    so it is the flag, not a field.
    """

    __slots__ = _fields = ("pair", "flag", "genus_product", "definite_class_number", "supersingular_lower_bound")

    def __init__(self, pair: AdmissiblePair, definite_class_number: int) -> None:
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "flag", _hyperelliptic_flag(pair))
        object.__setattr__(self, "genus_product", (pair.p - 1) * (pair.q - 1))
        object.__setattr__(self, "definite_class_number", definite_class_number)
        object.__setattr__(self, "supersingular_lower_bound", (definite_class_number + 1) // 2)


def hyperelliptic_sieve(pairs: list[AdmissiblePair]) -> list[SieveReport]:
    """Flag each pair by ``_hyperelliptic_flag``, with the witness numbers."""
    # admissible p, q are distinct odd primes: 2pq factors as (2, p, q)
    return [SieveReport(pair, _eichler_formula((2, pair.p, pair.q))) for pair in pairs]
