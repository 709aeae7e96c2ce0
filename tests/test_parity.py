import dataclasses
import sys

import pytest

import alquot.ntheory
import alquot.quadforms
import alquot.shimura
from alquot.cli import main
from alquot.localpoints import (
    DeficiencyLedger,
    LocalStatus,
    StatusSource,
    deficiency_ledger,
    pic1_at_other_prime,
    pic1_real,
)
from alquot.ntheory import INFINITY, Place, legendre, valuation
from alquot.parity import (
    HyperellipticFlag,
    ParityCertificate,
    Verdict,
    _certify_table,
    certify,
    enumerate_admissible,
    hyperelliptic_sieve,
    poonen_stoll_verdict,
)
from alquot.quaternion import QuaternionAlgebra, eichler_class_number, interchange
from alquot.shimura import (
    AdmissibilityRejection,
    AdmissiblePair,
    check_admissible,
    fixed_points_e,
    genus_VB,
    genus_quotient,
)


def _ledger(inf_ok: bool, p_ok: bool, q_ok: bool) -> DeficiencyLedger:
    return DeficiencyLedger(
        LocalStatus(INFINITY, inf_ok, StatusSource.REAL_SPLITTING),
        LocalStatus(Place(5), p_ok, StatusSource.OWN_PRIME_UNIFORMIZATION),
        LocalStatus(Place(17), q_ok, StatusSource.INTERCHANGE_CRITERION),
        LocalStatus(None, True, StatusSource.GOOD_REDUCTION_FACT),
    )


def test_verdict_by_count():
    assert poonen_stoll_verdict(_ledger(True, True, True)) is Verdict.EVEN
    assert poonen_stoll_verdict(_ledger(True, True, False)) is Verdict.ODD
    assert poonen_stoll_verdict(_ledger(False, True, False)) is Verdict.EVEN


def test_verdict_depends_only_on_parity():
    # flipping two statuses preserves the verdict
    assert poonen_stoll_verdict(_ledger(False, True, False)) is poonen_stoll_verdict(
        _ledger(True, True, True)
    )


def test_certify_examples():
    cert = certify(5, 17)
    assert isinstance(cert, ParityCertificate)
    assert cert.verdict is Verdict.ODD
    assert cert.genus.g_quotient == 2
    assert cert.ledger.deficient_places() == (Place(17),)
    assert cert.assumptions

    cert29 = certify(29, 17)
    assert cert29.verdict is Verdict.ODD
    assert cert29.genus.g_quotient == 16

    rejection = certify(7, 17)
    assert isinstance(rejection, AdmissibilityRejection)
    assert rejection.reason == "p ≢ 5 mod 24"


def test_certificate_consistency_guard():
    cert = certify(5, 17)
    with pytest.raises(ValueError):
        ParityCertificate(cert.pair, cert.genus, cert.ledger, Verdict.EVEN, cert.assumptions)
    with pytest.raises(ValueError):
        ParityCertificate(cert.pair, cert.genus, cert.ledger, Verdict.ODD, ())


def test_certificate_requires_even_quotient_genus():
    cert = certify(5, 17)
    odd_genus = dataclasses.replace(cert.genus, g_quotient=3)
    with pytest.raises(ValueError, match="even quotient genus"):
        ParityCertificate(cert.pair, odd_genus, cert.ledger, cert.verdict, cert.assumptions)


def _count_calls(monkeypatch, function) -> list:
    """Count calls of ``function`` through every alquot module that binds it."""
    calls = []

    def counted(*args):
        calls.append(args)
        return function(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("alquot") and getattr(module, function.__name__, None) is function:
            monkeypatch.setattr(module, function.__name__, counted)
    return calls


def _count_algebras(monkeypatch) -> list:
    """Record the places of every ``QuaternionAlgebra.from_ramified_places`` call."""
    calls = []
    build = QuaternionAlgebra.from_ramified_places.__func__

    def counted(cls, places):
        calls.append(places)
        return build(cls, places)

    monkeypatch.setattr(QuaternionAlgebra, "from_ramified_places", classmethod(counted))
    return calls


def test_certify_computes_each_invariant_once(monkeypatch):
    class_numbers = _count_calls(monkeypatch, alquot.quadforms.class_number)
    # the genus core, with the algebra and class number the certificate shares
    genera = _count_calls(monkeypatch, alquot.shimura._genus_quotient)
    algebras = _count_algebras(monkeypatch)
    cert = certify(29, 17)
    assert cert.genus.g_quotient == 16
    assert class_numbers == [(-4 * 29,)]
    assert [args[0] for args in genera] == [AdmissiblePair(29, 17)]
    assert algebras == [(29, 17)]


def test_enumerate_computes_one_class_number_per_prime_and_one_algebra_per_certificate(
    monkeypatch, capsys
):
    class_numbers = _count_calls(monkeypatch, alquot.quadforms.class_number)
    algebras = _count_algebras(monkeypatch)
    assert main(["enumerate", "--max", "500"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    ps = sorted({int(row[0]) for row in rows})
    assert len(rows) > len(ps) > 5
    assert class_numbers == [(-4 * p,) for p in ps]
    assert len(algebras) == len(rows)


def test_certify_and_sieve_reuse_the_known_primes(monkeypatch):
    # 100109 = 5 mod 24 is prime and (100109/41) = -1
    factorizations = _count_calls(monkeypatch, alquot.ntheory.prime_factors)
    cert = certify(100109, 41)
    report = hyperelliptic_sieve([cert.pair])[0]
    assert factorizations == []
    assert report.definite_class_number == eichler_class_number(2 * 100109 * 41)


def test_certify_proves_each_prime_a_bounded_number_of_times(monkeypatch):
    # check_admissible proves p and q, and so does the certificate's one
    # algebra as it builds their Places; the rest of the path trusts those
    primality = _count_calls(monkeypatch, alquot.ntheory.is_prime)
    squarefree = _count_calls(monkeypatch, alquot.ntheory.is_squarefree)
    cert = certify(100109, 41)
    assert isinstance(cert, ParityCertificate)
    assert len(primality) <= 4
    assert squarefree == []


@pytest.mark.parametrize(
    "function, args",
    [
        (genus_VB, (9, 17)),
        (fixed_points_e, (9, 17)),
        (fixed_points_e, (5, 15)),
        (fixed_points_e, (5, 2)),
        (fixed_points_e, (5, 5)),
        (pic1_at_other_prime, (9, 5)),
        (pic1_at_other_prime, (5, 9)),
        (pic1_at_other_prime, (2, 5)),
        (pic1_real, (5, 5, 5)),
        (pic1_real, (2, 5, 5)),
        (pic1_real, (5, 2, 5)),
        (pic1_real, (9, 17, 17)),
        (interchange, (QuaternionAlgebra.from_ramified_places({5, 17}), 9)),
        (valuation, (8, 4)),
        (legendre, (3, 9)),
    ],
)
def test_int_entry_points_reject_composites_twos_and_equal_primes(function, args):
    with pytest.raises(ValueError):
        function(*args)


def test_pic1_real_needs_distinct_odd_primes():
    # every int entry point on B = {p, q} shares one guard and its message
    for function, args in (
        (genus_VB, (5, 5)),
        (genus_VB, (2, 5)),
        (fixed_points_e, (5, 5)),
        (fixed_points_e, (5, 2)),
        (pic1_real, (5, 5, 5)),
        (pic1_real, (2, 5, 5)),
        (pic1_at_other_prime, (5, 5)),
        (pic1_at_other_prime, (2, 5)),
    ):
        with pytest.raises(ValueError, match="^the discriminant pq needs distinct odd primes p and q$"):
            function(*args)
    with pytest.raises(ValueError, match="^9 is not prime$"):
        genus_VB(9, 17)


def test_table_certificates_are_for_pair_certificates():
    # the table shares h(-4p) across each p-run; every certificate must be
    # the one for_pair builds alone, and agree with the int entry points
    pairs = enumerate_admissible(1000)
    assert len(pairs) == 453
    table = list(_certify_table(pairs))
    assert table == [ParityCertificate.for_pair(pair) for pair in pairs]
    for pair, cert in zip(pairs, table):
        p, q = pair.p, pair.q
        assert cert.pair == pair
        assert cert.genus == genus_quotient(pair)
        assert (cert.genus.g_VB, cert.genus.e_p) == (genus_VB(p, q), fixed_points_e(p, q))
        assert cert.ledger == deficiency_ledger(pair)
        assert cert.ledger.at_infinity.pic1_nonempty is pic1_real(p, q, p)
        assert cert.ledger.at_q.pic1_nonempty is pic1_at_other_prime(q, p)
        assert cert.verdict is poonen_stoll_verdict(cert.ledger)


def test_table_certificates_do_not_depend_on_pair_order():
    pairs = enumerate_admissible(300)
    shuffled = pairs[1::2] + pairs[::2]
    assert list(_certify_table(shuffled)) == [ParityCertificate.for_pair(pair) for pair in shuffled]


def test_sieve_class_number_is_eichlers_formula():
    pairs = enumerate_admissible(500)
    assert len(pairs) > 100
    for report in hyperelliptic_sieve(pairs):
        assert report.definite_class_number == eichler_class_number(2 * report.pair.p * report.pair.q)


def test_enumerate_examples():
    assert [(x.p, x.q) for x in enumerate_admissible(30)] == [(5, 17), (29, 17)]
    assert enumerate_admissible(16) == []
    assert enumerate_admissible(4) == []
    with pytest.raises(ValueError):
        enumerate_admissible(2**15)


def test_enumerate_is_complete():
    # every integer pair in the box, not only the congruence classes
    candidates = (check_admissible(p, q) for p in range(1, 401) for q in range(1, 401))
    expected = [pair for pair in candidates if isinstance(pair, AdmissiblePair)]
    assert len(expected) > 100
    assert enumerate_admissible(400) == expected


def test_for_pair_is_what_certify_builds():
    pair = AdmissiblePair(101, 29)
    assert ParityCertificate.for_pair(pair) == certify(101, 29)


def test_enumerate_sorted_and_admissible():
    pairs = enumerate_admissible(200)
    assert pairs == sorted(pairs, key=lambda x: (x.p, x.q))
    for pair in pairs:
        assert pair.p % 24 == 5 and pair.q % 12 == 5


def test_sieve_examples():
    reports = hyperelliptic_sieve([AdmissiblePair(5, 17), AdmissiblePair(29, 17)])
    first, second = reports
    assert first.flag is HyperellipticFlag.POSSIBLY_HYPERELLIPTIC
    assert first.genus_product == 64
    assert first.definite_class_number == 8
    assert first.supersingular_lower_bound == 4
    assert first.refined_not_hyperelliptic is False
    assert second.flag is HyperellipticFlag.NOT_HYPERELLIPTIC
    assert second.genus_product == 448
    assert second.refined_not_hyperelliptic is True


def test_sieve_bounds_are_exact_beyond_float_precision():
    # H(2pq) ~ 9.6e16 > 2^53: a float ceil(H/2) loses 4
    pair = AdmissiblePair(1073741909, 1073741969)
    report = hyperelliptic_sieve([pair])[0]
    assert report.definite_class_number == 96076812451666248
    assert report.supersingular_lower_bound == 48038406225833124
    assert report.refined_not_hyperelliptic is True


def test_sieve_flag_matches_product_rule():
    for report in hyperelliptic_sieve(enumerate_admissible(120)):
        expected = (
            HyperellipticFlag.NOT_HYPERELLIPTIC
            if report.genus_product > 240
            else HyperellipticFlag.POSSIBLY_HYPERELLIPTIC
        )
        assert report.flag is expected
