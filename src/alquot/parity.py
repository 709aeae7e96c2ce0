"""Jacobian parity certificates for Atkin-Lehner quotient curves.

The Poonen-Stoll criterion reduces the parity of the Shafarevich-Tate
order of a curve's jacobian to counting deficient places: places whose
completion carries no rational divisor of degree g - 1.
``_certify_table`` is the one construction path: it assembles genus data
and a deficiency ledger for each ``AdmissiblePair`` of a table and issues
the verdict; every external fact the argument leans on is listed on the
certificate.  ``ParityCertificate.for_pair`` is the certificate of the
one-pair table, and ``certify`` checks admissibility of two integers once
and then calls it.

Each invariant is computed once, at the level it belongs to.  Per
certificate: the algebra B = {p, q}, whose Places of p and q were proven
prime when it was built, serves the genus and every ledger entry.  Per
prime: the class number h(-4p), computed once per run of pairs with
equal p, so a table in (p, q) order needs one class number per distinct
p.

``enumerate_admissible`` scans a box for admissible pairs, and
``hyperelliptic_sieve`` applies the point-count bound that rules out
hyperellipticity of the quotient for all but finitely many pairs, in
one pass over a whole table.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from .localpoints import DeficiencyLedger, _deficiency_ledger
from .ntheory import is_prime
from .quadforms import class_number
from .quaternion import _eichler_formula
from .shimura import (
    AdmissibilityRejection,
    AdmissiblePair,
    GenusData,
    _genus_quotient,
    _pair_algebra,
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

# A hyperelliptic quotient forces (p-1)(q-1) <= 240.
HYPERELLIPTIC_PRODUCT_BOUND = 240

# A hyperelliptic curve with good reduction at 2 has at most 2 * #P^1(F_4)
# points over F_4.
F4_POINT_CAP = 10


@dataclass(frozen=True)
class ParityCertificate:
    """Complete trace of one parity computation.

    The ledger speaks about degree g-1 divisor classes via degree 1: the
    bridge needs the quotient genus to be even (so g-1 is odd) together
    with the everywhere-existence of degree-2 classes, and the evenness is
    asserted here, where the genus and the ledger meet.
    """

    pair: AdmissiblePair
    genus: GenusData
    ledger: DeficiencyLedger
    verdict: Verdict
    assumptions: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.genus.g_quotient % 2:
            raise ValueError("degree bridge needs an even quotient genus")
        if self.verdict is not poonen_stoll_verdict(self.ledger):
            raise ValueError("verdict contradicts the ledger parity")
        if not self.assumptions:
            raise ValueError("a certificate always cites its assumptions")

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
    """The certificate of each pair, in order: the one construction path.
    h(-4p) is computed once per run of pairs with equal p, so pairs in
    (p, q) order, as ``enumerate_admissible`` returns them, need one class
    number per distinct p, and only the current one is held.  B = {p, q}
    is built once per pair and serves both the genus and the ledger."""
    p = h = None
    for pair in pairs:
        if pair.p != p:
            p, h = pair.p, class_number(-4 * pair.p)
        B = _pair_algebra(pair.p, pair.q)
        genus = _genus_quotient(pair, B, h)
        ledger = _deficiency_ledger(pair, B)
        yield ParityCertificate(
            pair=pair,
            genus=genus,
            ledger=ledger,
            verdict=poonen_stoll_verdict(ledger),
            assumptions=STANDING_ASSUMPTIONS,
        )


def enumerate_admissible(bound: int) -> list[AdmissiblePair]:
    """All admissible (p, q) with p <= bound and q <= bound, sorted."""
    if not 0 < bound < 2**15:
        raise ValueError("bound must be a positive integer below 2^15")
    # check_admissible decides every candidate; the lists only skip
    # composites, and the ascending loops emit pairs in (p, q) order.
    ps = [p for p in range(5, bound + 1, 24) if is_prime(p)]
    qs = [q for q in range(5, bound + 1, 12) if is_prime(q)]
    checked = (check_admissible(p, q) for p in ps for q in qs)
    return [pair for pair in checked if isinstance(pair, AdmissiblePair)]


@dataclass(frozen=True)
class SieveReport:
    """Hyperellipticity sieve outcome with its witness numbers.

    genus_product is (p-1)(q-1); definite_class_number is H(2pq), the
    number of supersingular points of the reduction mod 2, of which at
    least supersingular_lower_bound = ceil(H/2) survive on the quotient,
    to be compared against F4_POINT_CAP.  refined_not_hyperelliptic
    reports the coarser bound ceil((p-1)(q-1)/24) > F4_POINT_CAP.
    """

    pair: AdmissiblePair
    flag: HyperellipticFlag
    genus_product: int
    definite_class_number: int
    supersingular_lower_bound: int
    refined_not_hyperelliptic: bool


def hyperelliptic_sieve(pairs: list[AdmissiblePair]) -> list[SieveReport]:
    """Flag each pair: the quotient can be hyperelliptic only if
    (p-1)(q-1) <= HYPERELLIPTIC_PRODUCT_BOUND."""
    reports = []
    for pair in pairs:
        product = (pair.p - 1) * (pair.q - 1)
        # admissible p, q are distinct odd primes: 2pq factors as (2, p, q)
        h = _eichler_formula((2, pair.p, pair.q))
        flag = (
            HyperellipticFlag.NOT_HYPERELLIPTIC
            if product > HYPERELLIPTIC_PRODUCT_BOUND
            else HyperellipticFlag.POSSIBLY_HYPERELLIPTIC
        )
        reports.append(
            SieveReport(
                pair=pair,
                flag=flag,
                genus_product=product,
                definite_class_number=h,
                supersingular_lower_bound=(h + 1) // 2,
                refined_not_hyperelliptic=-(-product // 24) > F4_POINT_CAP,
            )
        )
    return reports
