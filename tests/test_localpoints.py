import ast
from pathlib import Path

import pytest

import alquot.localpoints
import alquot.quaternion
from alquot.localpoints import (
    _ELSEWHERE,
    _SWAPPED,
    _TWO,
    DeficiencyLedger,
    LocalStatus,
    StatusSource,
    _deficiency_ledger,
    _own_prime_entry,
    deficiency_ledger,
    pic1_at_other_prime,
    pic1_at_own_prime,
    pic1_real,
)
from alquot.ntheory import INFINITY, Place, is_prime
from alquot.parity import enumerate_admissible
from alquot.quaternion import QuaternionAlgebra, interchange, ramified_places
from alquot.shimura import AdmissiblePair


def test_pic1_real_examples():
    assert pic1_real(5, 17, 5) is True
    assert pic1_real(5, 29, 5) is False  # 29 splits Q(sqrt(5))
    with pytest.raises(ValueError):
        pic1_real(5, 17, 7)


def test_own_prime_is_constant_true():
    assert pic1_at_own_prime() is True


def test_pic1_at_other_prime_examples():
    assert pic1_at_other_prime(5, 3) is True  # quotient by 3, over Q_5
    assert pic1_at_other_prime(17, 5) is False  # quotient by 5, over Q_17
    with pytest.raises(ValueError):
        pic1_at_other_prime(5, 5)


def test_pic1_at_other_prime_symbol_order_irrelevant():
    # the criterion compares ramification sets, so B(-p,-q) vs B(-q,-p)
    # cannot matter; spot-check by evaluating both role orders coherently
    for p, q in [(5, 3), (17, 5), (5, 17), (13, 7)]:
        assert QuaternionAlgebra(ramified_places(-p, -q)) == QuaternionAlgebra(ramified_places(-q, -p))


def _interchange_criterion_of_symbol_algebras(p, q):
    """The criterion, with the ramification sets of both symbol algebras
    computed by ``ramified_places``."""
    swapped = interchange(QuaternionAlgebra(frozenset({Place(p), Place(q)})), p)
    return swapped.ram_set in (ramified_places(-1, -p * q), ramified_places(-p, -q))


def test_pic1_at_other_prime_matches_the_symbol_algebras():
    pairs = [(pair.p, pair.q) for pair in enumerate_admissible(500)]
    small = [p for p in range(3, 60) if is_prime(p)]
    pairs += [(p, q) for p in small for q in small if p < q]
    outcomes = set()
    for p, q in pairs:
        for a, b in ((p, q), (q, p)):
            expected = _interchange_criterion_of_symbol_algebras(a, b)
            assert pic1_at_other_prime(a, b) is expected, (a, b)
            outcomes.add(expected)
    assert outcomes == {True, False}


def test_pic1_at_other_prime_evaluates_every_place_it_concludes_from(monkeypatch):
    # isomorphism is concluded from symbols evaluated at all four of oo, 2,
    # p and q; none is inferred from the product formula, although the
    # even cardinality of both sets would let three of them decide
    calls = []
    symbol = alquot.localpoints._hilbert_symbol

    def recorded(a, b, v):
        calls.append((a, b, v.prime))
        return symbol(a, b, v)

    monkeypatch.setattr(alquot.localpoints, "_hilbert_symbol", recorded)
    small = [p for p in range(3, 60) if is_prime(p)]
    found = 0
    for p in small:
        for q in small:
            if p != q:
                calls.clear()
                if pic1_at_other_prime(p, q):
                    found += 1
                    a, b = calls[-1][:2]
                    assert {v for x, y, v in calls if (x, y) == (a, b)} == {None, 2, p, q}, (p, q)
    assert found > 10


def test_deficiency_ledger_examples():
    for p, q in [(5, 17), (29, 17), (5, 53)]:
        ledger = deficiency_ledger(AdmissiblePair(p, q))
        assert ledger.deficient_count == 1
        assert ledger.deficient_places() == (Place(q),)
        assert ledger.at_infinity.source is StatusSource.REAL_SPLITTING
        assert ledger.at_p.source is StatusSource.OWN_PRIME_UNIFORMIZATION
        assert ledger.at_q.source is StatusSource.INTERCHANGE_CRITERION
        assert ledger.elsewhere.source is StatusSource.GOOD_REDUCTION_FACT


def test_local_status_guards():
    with pytest.raises(ValueError):
        LocalStatus(Place(5), False, StatusSource.OWN_PRIME_UNIFORMIZATION)
    with pytest.raises(ValueError):
        LocalStatus(Place(7), True, StatusSource.GOOD_REDUCTION_FACT)


def test_ledger_guards():
    ok = LocalStatus(INFINITY, True, StatusSource.REAL_SPLITTING)
    at_p = LocalStatus(Place(5), True, StatusSource.OWN_PRIME_UNIFORMIZATION)
    at_q = LocalStatus(Place(17), False, StatusSource.INTERCHANGE_CRITERION)
    ledger = DeficiencyLedger(ok, at_p, at_q)
    assert ledger.deficient_count == 1
    # the count is taken when a ledger is built, so a replaced entry recounts
    not_real = LocalStatus(INFINITY, False, StatusSource.REAL_SPLITTING)
    assert DeficiencyLedger(not_real, at_p, at_q).deficient_count == 2
    assert DeficiencyLedger(ok, at_p, LocalStatus(Place(17), True, StatusSource.INTERCHANGE_CRITERION)).deficient_count == 0
    with pytest.raises(ValueError):
        DeficiencyLedger(at_p, ok, at_q)  # first slot must be archimedean


def test_ledger_holds_the_one_symbolic_entry_and_takes_three_entries():
    ok = LocalStatus(INFINITY, True, StatusSource.REAL_SPLITTING)
    at_p = LocalStatus(Place(5), True, StatusSource.OWN_PRIME_UNIFORMIZATION)
    at_q = LocalStatus(Place(17), False, StatusSource.INTERCHANGE_CRITERION)
    rest = LocalStatus(None, True, StatusSource.GOOD_REDUCTION_FACT)
    with pytest.raises(TypeError):
        DeficiencyLedger(ok, at_p, at_q, rest)
    with pytest.raises(TypeError):
        DeficiencyLedger(ok, at_p, at_q, elsewhere=rest)
    ledgers = [DeficiencyLedger(ok, at_p, at_q), deficiency_ledger(AdmissiblePair(5, 17))]
    ledgers += [_deficiency_ledger(_own_prime_entry(Place(p)), Place(q)) for p, q in [(29, 17), (3, 7)]]
    for ledger in ledgers:
        assert ledger.elsewhere is _ELSEWHERE
        assert ledger.entries()[-1] is _ELSEWHERE
    assert _ELSEWHERE == rest


def test_exchange_vector_read_once_is_the_per_call_rule():
    # the interchange criterion reads interchange's memberships at
    # (oo, 2, p, q) once, at import; per call it gives the same vector for
    # every pair
    pairs = [(Place(pair.p), Place(pair.q)) for pair in enumerate_admissible(500)]
    assert len(pairs) > 100
    for P, Q in pairs:
        for own, other in ((P, Q), (Q, P)):  # the ledger asks with (Q, P)
            swapped = interchange(QuaternionAlgebra(frozenset({own, other})), own.prime)
            assert _SWAPPED == tuple(v in swapped.ram_set for v in (INFINITY, _TWO, own, other))


def test_the_exchange_rule_is_stated_once():
    # localpoints reads the rule through the public interchange alone
    assert not hasattr(alquot.quaternion, "_exchanged")
    tree = ast.parse(Path(alquot.localpoints.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "quaternion"
        for alias in node.names
    }
    assert "interchange" in imported
    assert {name for name in imported if name.startswith("_")} == {"_quad_field_splits"}


def _ledger_field_by_field(p: int, q: int) -> DeficiencyLedger:
    """The ledger of (p, q) through the public constructors, one entry each."""
    return DeficiencyLedger(
        at_infinity=LocalStatus(INFINITY, pic1_real(p, q, p), StatusSource.REAL_SPLITTING),
        at_p=LocalStatus(Place(p), pic1_at_own_prime(), StatusSource.OWN_PRIME_UNIFORMIZATION),
        at_q=LocalStatus(Place(q), pic1_at_other_prime(q, p), StatusSource.INTERCHANGE_CRITERION),
    )


def test_deficiency_ledger_equals_the_ledger_built_field_by_field():
    # admissible pairs, and pairs of small odd primes, so that both shared
    # entries at oo and both outcomes at q occur
    pairs = [(pair.p, pair.q) for pair in enumerate_admissible(500)]
    small = [p for p in range(3, 60) if is_prime(p)]
    pairs += [(p, q) for p in small for q in small if p != q]
    seen = set()
    for p, q in pairs:
        P, Q = Place(p), Place(q)
        ledger = _deficiency_ledger(_own_prime_entry(P), Q)
        expected = _ledger_field_by_field(p, q)
        assert ledger == expected, (p, q)
        # the fields that equality skips, counted when each ledger was built
        assert ledger.deficient_places() == expected.deficient_places()
        assert ledger.deficient_count == expected.deficient_count == len(ledger.deficient_places())
        seen.add((ledger.at_infinity.pic1_nonempty, ledger.at_q.pic1_nonempty))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_ledger_counts_its_deficient_places_once():
    ledger = deficiency_ledger(AdmissiblePair(5, 17))
    assert ledger.deficient_places() is ledger.deficient_places()
    assert [s.place for s in ledger.entries() if s.deficient] == list(ledger.deficient_places())


def test_ledger_reads_its_count_off_its_deficient_places():
    # the places are stored once; the count is not stored beside them
    ledger = deficiency_ledger(AdmissiblePair(5, 17))
    assert "deficient_count" not in {*DeficiencyLedger.__slots__, *DeficiencyLedger._fields}
    assert ledger.deficient_count == len(ledger.deficient_places()) == 1
