"""The value classes are immutable slotted classes on one base,
``ntheory._Value``.  They behave as the frozen dataclasses they replaced:
the same constructors and checks, equality and hash over the fields, the
``Name(field=value, ...)`` repr, and pickle and copy round trips."""

import copy
import inspect
import pickle

import pytest

from alquot.cli import OutputRecord
from alquot.localpoints import DeficiencyLedger, LocalStatus, StatusSource
from alquot.ntheory import INFINITY, Place
from alquot.parity import ParityCertificate, SieveReport, certify
from alquot.quadforms import QuadraticForm
from alquot.quaternion import QuaternionAlgebra
from alquot.shimura import AdmissibilityRejection, AdmissiblePair, GenusData, check_admissible

CERT = certify(5, 17)
PAIR = CERT.pair
AT_Q = CERT.ledger.at_q

VALUES = [
    Place(5),
    INFINITY,
    QuaternionAlgebra(frozenset({Place(5), Place(17)})),
    QuadraticForm(2, 1, 3),
    PAIR,
    check_admissible(7, 17),
    GenusData(5, 4),
    AT_Q,
    CERT.ledger,
    CERT,
    SieveReport(PAIR, 8),
    OutputRecord.from_certificate(CERT),
]


def _id(value) -> str:
    return type(value).__name__


# the constructors' parameters, as the dataclasses generated them
SIGNATURES = {
    Place: ["prime"],
    QuaternionAlgebra: ["ram_set"],
    QuadraticForm: ["a", "b", "c"],
    AdmissiblePair: ["p", "q"],
    AdmissibilityRejection: ["p", "q", "reason"],
    GenusData: ["g_VB", "e_p"],
    LocalStatus: ["place", "pic1_nonempty", "source"],
    DeficiencyLedger: ["at_infinity", "at_p", "at_q"],
    ParityCertificate: ["pair", "genus", "ledger"],
    SieveReport: ["pair", "definite_class_number"],
    OutputRecord: list(OutputRecord._fields),
}


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda cls: cls.__name__)
def test_constructor_signature(cls):
    parameters = inspect.signature(cls).parameters
    assert list(parameters) == SIGNATURES[cls]
    defaults = {name: p.default for name, p in parameters.items() if p.default is not p.empty}
    assert defaults == ({"prime": None} if cls is Place else {})


def test_derived_and_fixed_fields_are_not_arguments():
    # as for GenusData and ParityCertificate (test_shimura, test_parity)
    with pytest.raises(TypeError):
        DeficiencyLedger(CERT.ledger.at_infinity, CERT.ledger.at_p, AT_Q, elsewhere=CERT.ledger.elsewhere)
    with pytest.raises(TypeError):
        SieveReport(PAIR, 8, flag=SieveReport(PAIR, 8).flag)


# each constructor's check and its message, one per class that checks
CHECKS = [
    (Place, lambda: Place(91), "91 is not prime"),
    (QuaternionAlgebra, lambda: QuaternionAlgebra(frozenset({Place(5)})), "even cardinality"),
    (AdmissiblePair, lambda: AdmissiblePair(7, 17), r"^\(7, 17\) inadmissible: p ≢ 5 mod 24$"),
    (GenusData, lambda: GenusData(3, 2), "not divisible by 4"),
    (LocalStatus, lambda: LocalStatus(Place(7), True, StatusSource.GOOD_REDUCTION_FACT), "symbolic entry"),
    (DeficiencyLedger, lambda: DeficiencyLedger(AT_Q, AT_Q, AT_Q), "archimedean place"),
    (ParityCertificate, lambda: ParityCertificate(PAIR, GenusData(5, 0), CERT.ledger), "even quotient genus"),
    (SieveReport, lambda: SieveReport(PAIR, 8), None),  # it derives, and checks nothing
]


@pytest.mark.parametrize("cls, make, message", CHECKS, ids=[c.__name__ for c, _, _ in CHECKS])
def test_init_runs_the_post_init_check(cls, make, message, monkeypatch):
    # each class checks its arguments in its own __init__; only
    # QuaternionAlgebra keeps its check as a __post_init__ hook, which
    # perfbench's tracer and the algebra counter of test_parity wrap, and
    # its __init__ calls it through the class
    if message is not None:
        with pytest.raises(ValueError, match=message):
            make()
    if cls is not QuaternionAlgebra:
        assert not hasattr(cls, "__post_init__")
        return
    assert "__post_init__" in cls.__dict__
    checked = []
    monkeypatch.setattr(cls, "__post_init__", lambda self: checked.append(self))
    make()
    assert [type(value) for value in checked] == [cls]


@pytest.mark.parametrize("value", VALUES, ids=_id)
def test_values_are_immutable(value):
    assert not hasattr(value, "__dict__")
    for name in (*value._fields, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)


@pytest.mark.parametrize("value", VALUES, ids=_id)
def test_equality_and_hash_read_the_fields(value):
    fields = tuple(getattr(value, name) for name in value._fields)
    assert value.__eq__(fields) is NotImplemented
    if isinstance(value, OutputRecord):
        with pytest.raises(TypeError, match="unhashable"):  # its list fields
            hash(value)
    elif isinstance(value, Place):
        assert hash(value) == hash(value.prime)
    else:
        assert hash(value) == hash(fields)


def test_equality_compares_class_and_every_field():
    assert AdmissiblePair(5, 17) == AdmissiblePair(5, 17)
    assert AdmissiblePair(5, 17) != AdmissiblePair(29, 17)
    assert AdmissibilityRejection(5, 17, "") != AdmissibilityRejection(5, 17, "x")
    # the same field values in another class are not equal
    assert QuadraticForm(5, 17, 1) != AdmissibilityRejection(5, 17, 1)
    # the shared entry at the other places is a field; the ledger's
    # deficient places, which follow from its entries, are not
    assert CERT.ledger._fields == ("at_infinity", "at_p", "at_q", "elsewhere")
    assert CERT.ledger.elsewhere is DeficiencyLedger.elsewhere


def test_repr_names_every_field():
    assert repr(Place(5)) == "Place(prime=5)"
    assert repr(INFINITY) == "Place(prime=None)"
    assert repr(QuadraticForm(2, 1, 3)) == "QuadraticForm(a=2, b=1, c=3)"
    assert repr(check_admissible(7, 17)) == "AdmissibilityRejection(p=7, q=17, reason='p ≢ 5 mod 24')"
    assert repr(GenusData(5, 4)) == "GenusData(g_VB=5, e_p=4, g_quotient=2, mass_half=3)"
    assert repr(AT_Q) == (
        "LocalStatus(place=Place(prime=17), pic1_nonempty=False, "
        "source=<StatusSource.INTERCHANGE_CRITERION: 'interchange-criterion'>)"
    )
    assert repr(SieveReport(PAIR, 8)) == (
        "SieveReport(pair=AdmissiblePair(p=5, q=17), "
        "flag=<HyperellipticFlag.POSSIBLY_HYPERELLIPTIC: 'possibly_hyperelliptic'>, "
        "genus_product=64, definite_class_number=8, supersingular_lower_bound=4)"
    )
    ledger = CERT.ledger
    assert repr(ledger) == "DeficiencyLedger(at_infinity=%r, at_p=%r, at_q=%r, elsewhere=%r)" % ledger.entries()
    assert repr(CERT) == "ParityCertificate(pair=%r, genus=%r, ledger=%r, verdict=%r, assumptions=%r)" % (
        PAIR, CERT.genus, ledger, CERT.verdict, CERT.assumptions
    )


# protocol 0 reduces through copyreg, the highest through __reduce_ex__
ROUND_TRIPS = {
    **{f"pickle{n}": lambda v, n=n: pickle.loads(pickle.dumps(v, protocol=n)) for n in (0, pickle.HIGHEST_PROTOCOL)},
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("trip", ROUND_TRIPS)
@pytest.mark.parametrize("value", VALUES, ids=_id)
def test_pickle_and_copy_round_trips(value, trip):
    again = ROUND_TRIPS[trip](value)
    assert type(again) is type(value)
    assert again == value
    assert repr(again) == repr(value)
    with pytest.raises(AttributeError):
        setattr(again, value._fields[0], 1)
    if isinstance(value, DeficiencyLedger):
        assert again.deficient_places() == value.deficient_places()
