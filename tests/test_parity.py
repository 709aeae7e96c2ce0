import inspect
import sys

import pytest

import alquot.ntheory
import alquot.quadforms
import alquot.quaternion
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
    F4_POINT_CAP,
    HYPERELLIPTIC_PRODUCT_BOUND,
    STANDING_ASSUMPTIONS,
    HyperellipticFlag,
    ParityCertificate,
    SieveReport,
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
    GenusData,
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
    with pytest.raises(TypeError):
        ParityCertificate(cert.pair, cert.genus, cert.ledger, assumptions=())


def test_certificate_cites_the_fixed_assumptions():
    # (pair, genus, ledger) is the whole constructor: the citations are a
    # fixed field, shared by every certificate
    cert = certify(5, 17)
    rebuilt = ParityCertificate(cert.pair, cert.genus, cert.ledger)
    assert rebuilt == cert
    with pytest.raises(TypeError):
        ParityCertificate(cert.pair, cert.genus, cert.ledger, STANDING_ASSUMPTIONS)
    certificates = [rebuilt, *_certify_table(enumerate_admissible(500))]
    assert len(certificates) > 100
    for c in certificates:
        assert c.assumptions is STANDING_ASSUMPTIONS
    assert ParityCertificate._fields == ("pair", "genus", "ledger", "verdict", "assumptions")
    assert list(inspect.signature(ParityCertificate).parameters) == ["pair", "genus", "ledger"]
    assert ParityCertificate.assumptions is STANDING_ASSUMPTIONS
    assert "assumptions" not in ParityCertificate.__slots__


def test_certificate_requires_even_quotient_genus():
    cert = certify(5, 17)
    odd_genus = GenusData(cert.genus.g_VB, 0)
    assert odd_genus.g_quotient == 3
    with pytest.raises(ValueError, match="even quotient genus"):
        ParityCertificate(cert.pair, odd_genus, cert.ledger)


def test_certificate_computes_its_verdict_from_its_ledger():
    cert = certify(5, 17)
    assert cert.verdict is Verdict.ODD
    with pytest.raises(TypeError):
        ParityCertificate(cert.pair, cert.genus, cert.ledger, verdict=Verdict.EVEN)
    # 17 is the one deficient place: making it non-deficient flips the parity
    at_q = LocalStatus(cert.ledger.at_q.place, True, cert.ledger.at_q.source)
    even = ParityCertificate(cert.pair, cert.genus, DeficiencyLedger(cert.ledger.at_infinity, cert.ledger.at_p, at_q))
    assert even.ledger.deficient_count == 0
    assert even.verdict is Verdict.EVEN


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
    """Record the ramification set of every ``QuaternionAlgebra`` built,
    however it is built."""
    built = []
    check = QuaternionAlgebra.__post_init__

    def counted(self):
        built.append(self.ram_set)
        check(self)

    monkeypatch.setattr(QuaternionAlgebra, "__post_init__", counted)
    return built


def test_certify_computes_each_invariant_once(monkeypatch):
    class_numbers = _count_calls(monkeypatch, alquot.quadforms.class_number)
    # the genus from its two integrity-checked parts, with the Places and
    # class number the certificate shares
    genera = _count_calls(monkeypatch, alquot.shimura._genus_VB)
    fixed_points = _count_calls(monkeypatch, alquot.shimura._fixed_points_e)
    algebras = _count_algebras(monkeypatch)
    cert = certify(29, 17)
    assert cert.genus.g_quotient == 16
    assert class_numbers == [(-4 * 29,)]
    assert [args[:2] for args in genera] == [(29, 17)]
    # h(-116) = 6, and Q(sqrt(-29)) splits B = {29, 17}: e_p = 2h
    assert fixed_points == [(Place(29), Place(17), 6)]
    assert cert.genus.e_p == 12
    # the Places of p and q carry B = {p, q}: no algebra is built
    assert algebras == []


def test_enumerate_computes_one_class_number_per_prime_and_builds_no_algebra(monkeypatch, capsys):
    class_numbers = _count_calls(monkeypatch, alquot.quadforms.class_number)
    algebras = _count_algebras(monkeypatch)
    assert main(["enumerate", "--max", "500"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    ps = sorted({int(row[0]) for row in rows})
    assert len(rows) > len(ps) > 5
    assert class_numbers == [(-4 * p,) for p in ps]
    assert algebras == []


def test_enumerate_computes_the_genus_factors_once_per_prime(monkeypatch, capsys):
    factors = _count_calls(monkeypatch, alquot.quaternion._local_factors)
    assert main(["enumerate", "--max", "500"]) == 0
    rows = [[int(n) for n in line.split(",")[:4]] for line in capsys.readouterr().out.splitlines()[1:]]
    primes = {n for row in rows for n in row[:2]}
    assert len(rows) > len(primes) > 5
    assert sorted(factors) == [((n,),) for n in sorted(primes)]
    for p, q, _, g in rows:
        assert g == genus_VB(p, q)


def test_enumerate_shares_the_ledger_entries_that_do_not_read_the_pair(monkeypatch, capsys):
    # the entry at p reads only p, the entry at oo takes one of two values
    # and the symbolic entry one: only the entry at q is built per row, and
    # every entry is checked by LocalStatus.__init__ when it is built
    built = []
    init = LocalStatus.__init__

    def counted(status, *args, **kwargs):
        init(status, *args, **kwargs)
        built.append(status)

    monkeypatch.setattr(LocalStatus, "__init__", counted)
    assert main(["enumerate", "--max", "500"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    ps = sorted({int(row[0]) for row in rows})
    assert len(rows) > len(ps) > 5
    by_source = {source: [s for s in built if s.source is source] for source in StatusSource}
    assert sorted(s.place.prime for s in by_source[StatusSource.OWN_PRIME_UNIFORMIZATION]) == ps
    assert len(by_source[StatusSource.REAL_SPLITTING]) <= 2
    assert by_source[StatusSource.GOOD_REDUCTION_FACT] == []
    assert len(by_source[StatusSource.INTERCHANGE_CRITERION]) == len(rows)

    ledgers = [cert.ledger for cert in _certify_table(enumerate_admissible(500))]
    assert len({id(ledger.at_infinity) for ledger in ledgers}) <= 2
    assert len({id(ledger.at_p) for ledger in ledgers}) == len(ps)
    assert len({id(ledger.elsewhere) for ledger in ledgers}) == 1


def test_enumerate_evaluates_few_hilbert_symbols_per_row(monkeypatch, capsys):
    # the interchange criterion compares place by place and stops at the
    # first disagreement; building both symbol algebras took 8 per row.
    # The table calls the unchecked core, and evaluates at least one a row
    symbols = _count_calls(monkeypatch, alquot.ntheory._hilbert_symbol)
    assert main(["enumerate", "--max", "500"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) > 100
    assert len(rows) <= len(symbols) < 8 * len(rows)


def test_enumerate_computes_each_verdict_once(monkeypatch, capsys):
    verdicts = _count_calls(monkeypatch, poonen_stoll_verdict)
    assert main(["enumerate", "--max", "500"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) > 100
    assert len(verdicts) == len(rows)


def test_sieve_report_computes_its_flag_and_bounds():
    pair = check_admissible(100109, 41)
    report = SieveReport(pair, 1)
    assert report.flag is HyperellipticFlag.NOT_HYPERELLIPTIC
    assert report.genus_product == 100108 * 40
    assert report.supersingular_lower_bound == 1
    assert SieveReport(AdmissiblePair(5, 17), 2).flag is HyperellipticFlag.POSSIBLY_HYPERELLIPTIC
    for witness in ("flag", "genus_product", "supersingular_lower_bound"):
        with pytest.raises(TypeError):
            SieveReport(pair, 1, **{witness: None})


def test_certify_and_sieve_reuse_the_known_primes(monkeypatch):
    # 100109 = 5 mod 24 is prime and (100109/41) = -1
    factorizations = _count_calls(monkeypatch, alquot.ntheory.prime_factors)
    cert = certify(100109, 41)
    report = hyperelliptic_sieve([cert.pair])[0]
    assert factorizations == []
    assert report.definite_class_number == eichler_class_number(2 * 100109 * 41)


def test_certify_proves_each_prime_a_bounded_number_of_times(monkeypatch):
    # check_admissible proves p and q; the table builds their Places from
    # that proof, and the rest of the path trusts those
    primality = _count_calls(monkeypatch, alquot.ntheory.is_prime)
    squarefree = _count_calls(monkeypatch, alquot.ntheory.is_squarefree)
    cert = certify(100109, 41)
    assert isinstance(cert, ParityCertificate)
    assert sorted(primality) == [(41,), (100109,)]
    assert squarefree == []


def test_genus_and_ledger_of_a_pair_trust_its_admission(monkeypatch):
    # check_admissible proved 100109 and 41 prime: no trial division again
    pair = check_admissible(100109, 41)
    divisions = _count_calls(monkeypatch, alquot.ntheory._least_prime_factor)
    genus, ledger = genus_quotient(pair), deficiency_ledger(pair)
    assert divisions == []
    assert (genus.g_quotient % 2, ledger.deficient_places()) == (0, (Place(41),))


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
        (interchange, (QuaternionAlgebra(frozenset({Place(5), Place(17)})), 9)),
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
    # the bound holds for p too: 29 is the next candidate p past 28
    assert [(x.p, x.q) for x in enumerate_admissible(28)] == [(5, 17)]
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


def test_enumerated_pairs_are_the_validated_pairs():
    # the table builds its pairs without running the rules again; each is
    # still the pair that the validating constructor builds
    pairs = enumerate_admissible(1000)
    assert len(pairs) == 453
    for pair in pairs:
        validated = AdmissiblePair(pair.p, pair.q)
        assert type(pair) is AdmissiblePair
        assert pair == validated and hash(pair) == hash(validated)


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
    assert second.flag is HyperellipticFlag.NOT_HYPERELLIPTIC
    assert second.genus_product == 448


def test_sieve_bounds_are_exact_beyond_float_precision():
    # H(2pq) ~ 9.6e16 > 2^53: a float ceil(H/2) loses 4
    pair = AdmissiblePair(1073741909, 1073741969)
    report = hyperelliptic_sieve([pair])[0]
    assert report.definite_class_number == 96076812451666248
    assert report.supersingular_lower_bound == 48038406225833124
    assert report.flag is HyperellipticFlag.NOT_HYPERELLIPTIC


def test_the_product_bound_is_the_f4_point_cap():
    # ceil((p-1)(q-1)/24) > F4_POINT_CAP exactly when (p-1)(q-1) > 240, so
    # the refined bound is the flag's
    assert HYPERELLIPTIC_PRODUCT_BOUND == 24 * F4_POINT_CAP == 240
    for report in hyperelliptic_sieve(enumerate_admissible(300)):
        refined = -(-report.genus_product // 24) > F4_POINT_CAP
        assert refined is (report.flag is HyperellipticFlag.NOT_HYPERELLIPTIC)


def test_sieve_report_stores_no_copy_of_its_flag():
    # the refined bound is the flag, so the report has five fields
    names = list(SieveReport._fields)
    assert "refined_not_hyperelliptic" not in names
    assert names == ["pair", "flag", "genus_product", "definite_class_number", "supersingular_lower_bound"]


def test_sieve_flag_matches_product_rule():
    for report in hyperelliptic_sieve(enumerate_admissible(120)):
        expected = (
            HyperellipticFlag.NOT_HYPERELLIPTIC
            if report.genus_product > 240
            else HyperellipticFlag.POSSIBLY_HYPERELLIPTIC
        )
        assert report.flag is expected
