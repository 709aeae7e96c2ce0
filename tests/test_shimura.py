from fractions import Fraction

import pytest

import alquot.shimura
from alquot.ntheory import is_prime, kronecker
from alquot.shimura import (
    AdmissibilityRejection,
    AdmissiblePair,
    GenusData,
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


def _character(d: int, ell: int) -> int:
    """(d/ell) for an odd prime ell, by searching for a square root of d."""
    if d % ell == 0:
        return 0
    return 1 if any(x * x % ell == d % ell for x in range(1, ell)) else -1


def _twelve_g0(primes: list[int], chi4: dict, chi3: dict) -> int:
    """12 times the genus of X_0(N) for N the product of the distinct odd
    ``primes``: 1 + index/12 - nu2/4 - nu3/3 - cusps/2 (Shimura,
    Prop. 1.40 and 1.43), with index prod(l+1), nu2 = prod(1 + (-4/l)),
    nu3 = prod(1 + (-3/l)) and 2^k cusps for k primes."""
    index, nu2, nu3 = 1, 1, 1
    for ell in primes:
        index *= ell + 1
        nu2 *= 1 + chi4[ell]
        nu3 *= 1 + chi3[ell]
    return 12 + index - 3 * nu2 - 4 * nu3 - 6 * 2 ** len(primes)


def test_genus_matches_the_new_part_of_X0_by_jacquet_langlands():
    # Jac(V) is isogenous to the pq-new part of J_0(pq), so
    # g_VB = g0(pq) - 2 g0(p) - 2 g0(q), from the Gamma_0(N) genus formula
    primes = [n for n in range(3, 400, 2) if all(n % d for d in range(3, n, 2))]
    chi4 = {ell: _character(-1, ell) for ell in primes}  # (-4/l) = (-1/l)
    chi3 = {ell: _character(-3, ell) for ell in primes}
    pairs = [(p, q) for p in primes for q in primes if p < q]
    assert len(pairs) == 2926
    for p, q in pairs:
        old = _twelve_g0([p], chi4, chi3) + _twelve_g0([q], chi4, chi3)
        g12 = _twelve_g0([p, q], chi4, chi3) - 2 * old
        assert g12 % 12 == 0, (p, q)
        assert genus_VB(p, q) == g12 // 12, (p, q)


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


def test_genus_data_derives_the_quotient_genus():
    data = GenusData(3, 4)
    assert (data.g_VB, data.e_p, data.g_quotient, data.mass_half) == (3, 4, 1, 2)
    assert GenusData(37, 12) == genus_quotient(AdmissiblePair(29, 17))
    # a quotient of genus 0 is accepted: only a negative genus is refused
    assert GenusData(1, 4).g_quotient == 0
    for derived in ("g_quotient", "mass_half"):
        with pytest.raises(TypeError):
            GenusData(3, 4, **{derived: 1})


@pytest.mark.parametrize(
    "g_VB, e_p, message",
    [
        (2, 0, "not integral"),
        (3, 2, "not divisible by 4"),
        (1, 8, "negative quotient genus"),
        # each has g_VB odd and 4 | e_p, so only the sign check refuses it
        (-3, -8, "must be nonnegative"),
        (5, -4, "must be nonnegative"),
    ],
)
def test_genus_data_holds_the_riemann_hurwitz_checks(g_VB, e_p, message):
    with pytest.raises(ValueError, match=message):
        GenusData(g_VB, e_p)


# bogus per-prime factors (mass, e2, e3): 12 g_VB comes out as 6, then -12
@pytest.mark.parametrize("fp", [(1, 1, 1), (0, 0, 6)])
def test_genus_VB_refuses_a_non_integral_or_negative_genus(fp):
    with pytest.raises(ValueError, match="non-integral value"):
        alquot.shimura._genus_VB(5, 17, fp, (1, 1, 1))


def test_the_admissible_pair_scan_reads_the_classes_of_the_rules(monkeypatch):
    # the scan draws its candidates from _MODULUS, the classes that the
    # per-prime rule tests, so widening a class widens both alike
    monkeypatch.setitem(alquot.shimura._MODULUS, "q", 6)
    box = range(1, 201)
    candidates = (check_admissible(p, q) for p in box for q in box)
    expected = [pair for pair in candidates if isinstance(pair, AdmissiblePair)]
    assert any(pair.q % 12 == 11 for pair in expected)
    assert list(alquot.shimura._admissible_pairs(200)) == expected
