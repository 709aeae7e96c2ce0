from fractions import Fraction

import pytest

import alquot.shimura
from alquot.ntheory import is_prime, kronecker
from alquot.shimura import (
    AdmissibilityRejection,
    AdmissiblePair,
    check_admissible,
    fixed_points_e,
    genus_VB,
    genus_quotient,
)


def test_check_admissible_accepts():
    pair = check_admissible(5, 17)
    assert isinstance(pair, AdmissiblePair)
    assert (pair.p, pair.q, pair.disc) == (5, 17, 85)


def test_check_admissible_rejections():
    r = check_admissible(5, 29)
    assert isinstance(r, AdmissibilityRejection)
    assert r.reason == "p is a square mod q"  # 11^2 = 5 mod 29

    r = check_admissible(7, 17)
    assert r.reason == "p ≢ 5 mod 24"

    assert check_admissible(4, 17).reason == "p is not prime"
    assert check_admissible(5, 15).reason == "q is not prime"
    assert check_admissible(5, 13).reason == "q ≢ 5 mod 12"
    assert check_admissible(5, 5).reason == "p and q must be distinct"


def test_admissible_pair_constructor_validates():
    with pytest.raises(ValueError):
        AdmissiblePair(7, 17)


def test_check_admissible_evaluates_the_rule_once(monkeypatch):
    rule = alquot.shimura._admissibility_failure
    calls = []

    def counted(p, q):
        calls.append((p, q))
        return rule(p, q)

    monkeypatch.setattr(alquot.shimura, "_admissibility_failure", counted)
    assert isinstance(check_admissible(5, 17), AdmissiblePair)
    assert calls == [(5, 17)]
    calls.clear()
    assert check_admissible(7, 17).reason == "p ≢ 5 mod 24"
    assert calls == [(7, 17)]


def test_admissible_pair_error_names_the_failed_hypothesis():
    with pytest.raises(ValueError, match=r"^\(7, 17\) inadmissible: p ≢ 5 mod 24$"):
        AdmissiblePair(7, 17)


def test_genus_examples():
    assert genus_VB(5, 17) == 5
    assert genus_VB(29, 17) == 37
    assert genus_VB(5, 53) == 17
    with pytest.raises(ValueError):
        genus_VB(5, 5)
    with pytest.raises(ValueError):
        genus_VB(2, 17)


def test_genus_matches_the_rational_formula():
    # the library evaluates 12 g in integers; Fraction is the reference
    primes = [n for n in range(3, 300) if is_prime(n)]
    for p in primes:
        for q in primes:
            if p == q:
                continue
            e2 = (1 - kronecker(-4, p)) * (1 - kronecker(-4, q))
            e3 = (1 - kronecker(-3, p)) * (1 - kronecker(-3, q))
            g = 1 + Fraction((p - 1) * (q - 1), 12) - Fraction(e2, 4) - Fraction(e3, 3)
            assert g.denominator == 1
            assert genus_VB(p, q) == g, (p, q)


def test_fixed_points_examples():
    assert fixed_points_e(5, 17) == 4
    assert fixed_points_e(13, 17) == 0  # 17 splits Q(sqrt(-13))
    assert fixed_points_e(29, 17) == 12
    with pytest.raises(ValueError):
        fixed_points_e(7, 17)  # 7 = 3 mod 4 is outside the implemented regime


def test_genus_quotient_examples():
    for (p, q), (g, e, gq) in [
        ((5, 17), (5, 4, 2)),
        ((29, 17), (37, 12, 16)),
        ((5, 53), (17, 4, 8)),
    ]:
        data = genus_quotient(AdmissiblePair(p, q))
        assert (data.g_VB, data.e_p, data.g_quotient) == (g, e, gq)
        assert data.mass_half == (data.g_VB + 1) // 2


def test_congruences_on_small_admissible_pairs():
    pairs = [(5, 17), (29, 17), (5, 53), (53, 5), (5, 89)]
    for p, q in pairs:
        pair = check_admissible(p, q)
        if not isinstance(pair, AdmissiblePair):
            continue
        data = genus_quotient(pair)
        assert data.e_p % 8 == 4
        assert data.mass_half % 2 == 1
        assert data.g_quotient % 2 == 0
        assert data.mass_half == 1 + ((p - 1) * (q - 1) - 16) // 24
