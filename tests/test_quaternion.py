import math
from fractions import Fraction

import pytest

import alquot.ntheory
from alquot.ntheory import INFINITY, Place, is_squarefree, kronecker, prime_factors
from alquot.quaternion import (
    QuaternionAlgebra,
    eichler_class_number,
    interchange,
    is_isomorphic,
    quad_field_splits,
    ramified_places,
    reduced_discriminant,
)
from test_parity import _count_calls


def _places(*entries):
    return frozenset(INFINITY if e is None else Place(e) for e in entries)


def test_ramified_places_examples():
    assert ramified_places(-1, -1) == _places(2, None)
    assert ramified_places(-5, -17) == _places(2, 5, 17, None)
    assert ramified_places(-1, -15) == _places(3, None)
    with pytest.raises(ValueError):
        ramified_places(0, 3)


def test_ramification_parity_small_box():
    for a in range(-25, 26):
        for b in range(-25, 26):
            if a and b:
                assert len(ramified_places(a, b)) % 2 == 0


def test_ramification_square_rescaling():
    for a, b in [(-1, -1), (-5, -17), (3, 7), (-6, 10)]:
        base = ramified_places(a, b)
        for s in (1, 2, 3):
            for t in (1, 2, 3):
                assert ramified_places(a * s * s, b * t * t) == base


def test_reduced_discriminant():
    assert reduced_discriminant(QuaternionAlgebra(_places(2, None))) == 2
    assert reduced_discriminant(QuaternionAlgebra(_places(5, 17))) == 85
    assert reduced_discriminant(QuaternionAlgebra(_places(17, None))) == 17


def test_is_isomorphic_examples():
    assert is_isomorphic(QuaternionAlgebra.from_symbols(-1, -1), QuaternionAlgebra(_places(2, None)))
    assert not is_isomorphic(
        QuaternionAlgebra.from_symbols(-5, -17), QuaternionAlgebra(_places(5, None))
    )
    assert is_isomorphic(
        QuaternionAlgebra.from_symbols(-1, -15), QuaternionAlgebra(_places(3, None))
    )


def test_symbol_order_is_erased():
    assert is_isomorphic(
        QuaternionAlgebra.from_symbols(-5, -17), QuaternionAlgebra.from_symbols(-17, -5)
    )


def test_even_cardinality_enforced():
    with pytest.raises(ValueError):
        QuaternionAlgebra(_places(5))


def test_interchange_examples():
    B = QuaternionAlgebra(_places(5, 17))
    assert interchange(B, 5).ram_set == _places(17, None)
    assert interchange(B, 17).ram_set == _places(5, None)
    C = QuaternionAlgebra(_places(2, None))
    assert interchange(interchange(C, 7), 7) == C
    with pytest.raises(ValueError):
        interchange(B, 2)


def test_interchange_involution_all_patterns():
    # every pattern of (5 in B, oo in B), and what swapping them gives
    expected = {
        _places(5, 17): _places(17, None),
        _places(17, None): _places(5, 17),
        _places(5, None): _places(5, None),
        _places(): _places(),
        _places(2, 5, 17, None): _places(2, 5, 17, None),
    }
    for places, swapped in expected.items():
        B = QuaternionAlgebra(places)
        assert interchange(B, 5).ram_set == swapped
        assert interchange(interchange(B, 5), 5) == B


def test_quad_field_splits_examples():
    B = QuaternionAlgebra(_places(5, 17))
    assert quad_field_splits(5, B)
    assert quad_field_splits(-5, B)
    assert not quad_field_splits(-13, QuaternionAlgebra(_places(13, 17)))
    with pytest.raises(ValueError):
        quad_field_splits(12, B)
    with pytest.raises(ValueError):
        quad_field_splits(1, B)


def test_definite_algebra_never_split_by_real_field():
    B = QuaternionAlgebra(_places(17, None))
    assert not quad_field_splits(3, B)  # positive d fails at the ramified real place


def test_eichler_class_number_examples():
    assert eichler_class_number(2) == 1
    assert eichler_class_number(170) == 8
    with pytest.raises(ValueError):
        eichler_class_number(12)
    with pytest.raises(ValueError):
        eichler_class_number(1)  # 2/3 is not integral
    for D in (0, -5):
        with pytest.raises(ValueError, match="squarefree positive"):
            eichler_class_number(D)


def test_eichler_class_number_factors_D_once(monkeypatch):
    factorizations = _count_calls(monkeypatch, alquot.ntheory.prime_factors)
    squarefree = _count_calls(monkeypatch, alquot.ntheory.is_squarefree)
    # four primes: squarefree, but not the discriminant of a definite algebra
    with pytest.raises(ValueError, match="non-integral"):
        eichler_class_number(2 * 5 * 17 * 29)
    assert factorizations == [(2 * 5 * 17 * 29,)]
    assert squarefree == []


def test_eichler_class_number_matches_the_rational_formula():
    # the library evaluates 12 H(D) in integers; Fraction is the reference
    for D in range(1, 3000):
        if not is_squarefree(D):
            continue
        ells = prime_factors(D)
        h = (
            Fraction(math.prod(ell - 1 for ell in ells), 12)
            + Fraction(math.prod(1 - kronecker(-4, ell) for ell in ells), 4)
            + Fraction(math.prod(1 - kronecker(-3, ell) for ell in ells), 3)
        )
        if h.denominator == 1 and h > 0:
            assert eichler_class_number(D) == h, D
        else:
            with pytest.raises(ValueError, match="non-integral"):
                eichler_class_number(D)


def test_eichler_lower_bound():
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            h = eichler_class_number(2 * p * q)
            assert h >= (p - 1) * (q - 1) / 12
