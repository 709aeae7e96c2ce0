import math
import random
from fractions import Fraction

import pytest

import alquot.ntheory
from alquot.ntheory import INFINITY, Place, hilbert_symbol, is_squarefree, kronecker, prime_factors
from alquot.quaternion import (
    QuaternionAlgebra,
    eichler_class_number,
    interchange,
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
    for a, b in [(0, 3), (3, 0)]:
        with pytest.raises(ValueError, match="symbol entries must be nonzero"):
            ramified_places(a, b)


@pytest.mark.parametrize(
    ("a", "b"), [(-5, -17), (-85, 1000003), (2 * 29, -10000229), (3 * 29, -29 * 10000229)]
)
def test_ramified_places_proves_each_prime_once(a, b, monkeypatch):
    # the factors prime_factors proves are not proven again by their Places;
    # a prime that a and b share is proven once for each, and not again
    divisions = _count_calls(monkeypatch, alquot.ntheory._least_prime_factor)
    prime_factors(a)
    prime_factors(b)
    alone = len(divisions)
    divisions.clear()
    ramified_places(a, b)
    assert len(divisions) == alone


def _ramified_places_of_the_product(a, b):
    """The reference: the places over the primes of 2ab, factored whole."""
    places = [INFINITY, *map(Place, prime_factors(2 * a * b))]
    return frozenset(v for v in places if hilbert_symbol(a, b, v) == -1)


@pytest.mark.parametrize(
    ("a", "b"),
    [(1, 1), (1, 7), (2, 1), (15, 21), (30, 105), (2**5, 3**4), (5**3, 5**2 * 7), (7**2, 2 * 7),
     (999983, 999979), (2 * 999983, 999983)],
)
@pytest.mark.parametrize(("s", "t"), [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_ramified_places_matches_the_product_factorization(a, b, s, t):
    assert ramified_places(s * a, t * b) == _ramified_places_of_the_product(s * a, t * b)


def test_ramified_places_matches_the_product_factorization_sampled():
    rng = random.Random(34)
    for _ in range(500):
        a, b = (rng.choice((-1, 1)) * rng.randrange(1, 10**6) for _ in range(2))
        assert ramified_places(a, b) == _ramified_places_of_the_product(a, b), (a, b)


def test_ramified_places_divides_about_the_square_roots_of_its_entries(monkeypatch):
    # trial division of 2ab would run on to 999979, the smaller prime; each
    # call (n, d) makes at most one division for each odd d' in [d, sqrt(n)]
    calls = _count_calls(monkeypatch, alquot.ntheory._least_prime_factor)
    ramified_places(999983, -999979)
    assert sum(max(0, (math.isqrt(n) - d) // 2 + 1) for n, d in calls) <= math.isqrt(999983)


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


def _symbol_algebra(a, b):
    return QuaternionAlgebra(ramified_places(a, b))


def test_isomorphism_examples():
    assert _symbol_algebra(-1, -1) == QuaternionAlgebra(_places(2, None))
    assert _symbol_algebra(-5, -17) != QuaternionAlgebra(_places(5, None))
    assert _symbol_algebra(-1, -15) == QuaternionAlgebra(_places(3, None))


def test_symbol_order_is_erased():
    assert _symbol_algebra(-5, -17) == _symbol_algebra(-17, -5)


# a list of two equal Places built an algebra of reduced discriminant 25,
# and a frozenset of ints one that failed later, with AttributeError
@pytest.mark.parametrize(
    "ram_set, message",
    [
        ([Place(5), Place(5)], "is a frozenset, not list"),
        ({Place(5), Place(17)}, "is a frozenset, not set"),
        (frozenset({5, 17}), "holds Places, not int"),
    ],
    ids=["list", "set", "frozenset-of-ints"],
)
def test_a_ramification_set_is_a_frozenset_of_places(ram_set, message):
    with pytest.raises(TypeError, match=f"^a ramification set {message}$"):
        QuaternionAlgebra(ram_set)


def test_interchange_examples():
    B = QuaternionAlgebra(_places(5, 17))
    assert interchange(B, 5).ram_set == _places(17, None)
    assert interchange(B, 17).ram_set == _places(5, None)
    C = QuaternionAlgebra(_places(2, None))
    assert interchange(interchange(C, 7), 7) == C
    with pytest.raises(ValueError):
        interchange(B, 2)


def test_interchange_reuses_the_place_the_algebra_holds(monkeypatch):
    B = QuaternionAlgebra(_places(1000003, 17))  # the one primality proof of 1000003
    swapped = _places(17, None)
    primality = _count_calls(monkeypatch, alquot.ntheory.is_prime)
    assert interchange(B, 1000003).ram_set == swapped
    assert primality == []
    # a prime B does not hold is proven, and a composite refused
    assert interchange(B, 1000033) == B
    assert primality == [(1000033,)]
    with pytest.raises(ValueError, match="^1000001 is not prime$"):
        interchange(B, 1000001)


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
    # at 2 the field discriminant is d for d = 1 mod 4 and 4d otherwise:
    # 2 splits in Q(sqrt(17)) and Q(sqrt(-7)), and is inert in Q(sqrt(5))
    # and Q(sqrt(-3)), where 3 does not split either
    B23 = QuaternionAlgebra(_places(2, 3))
    assert [quad_field_splits(d, B23) for d in (17, -7, 5, -3)] == [False, False, True, True]
    with pytest.raises(ValueError):
        quad_field_splits(12, B)
    with pytest.raises(ValueError):
        quad_field_splits(1, B)


def test_is_definite_reads_the_real_place():
    assert QuaternionAlgebra(_places(17, None)).is_definite is True
    assert QuaternionAlgebra(_places(5, 17)).is_definite is False


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


def _supersingular_j_count(ell):
    """Supersingular j-invariants in characteristic ell, by Deuring's
    criterion alone (Silverman, AEC V.4.1): the distinct values of
    j(lam) = 256 (lam^2 - lam + 1)^3 / (lam^2 (lam - 1)^2) over the roots
    in F_{ell^2} of the Hasse polynomial sum_i C(m, i)^2 lam^i, m = (ell-1)/2.
    F_{ell^2} = F_ell[t]/(t^2 - n) for a non-residue n; only int arithmetic."""
    m = (ell - 1) // 2
    n = next(a for a in range(2, ell) if pow(a, m, ell) == ell - 1)

    def mul(x, y):
        return (x[0] * y[0] + n * x[1] * y[1]) % ell, (x[0] * y[1] + x[1] * y[0]) % ell

    def add(x, c0, c1=0):
        return (x[0] + c0) % ell, (x[1] + c1) % ell

    coefficients = [math.comb(m, i) ** 2 for i in range(m, -1, -1)]
    roots = []
    for lam in ((a, b) for a in range(ell) for b in range(ell)):
        value = (0, 0)
        for c in coefficients:  # Horner
            value = add(mul(value, lam), c)
        if value == (0, 0):
            roots.append(lam)
    assert len(roots) == m  # the Hasse polynomial splits into distinct roots over F_{ell^2}
    j_values = set()
    for lam in roots:
        lam_sq = mul(lam, lam)
        s = add(lam_sq, 1 - lam[0], -lam[1])
        num = mul(mul(s, s), mul(s, (256, 0)))
        den = mul(lam_sq, mul(add(lam, -1), add(lam, -1)))
        norm_inv = pow(den[0] ** 2 - n * den[1] ** 2, ell - 2, ell)
        j_values.add(mul(num, (den[0] * norm_inv, -den[1] * norm_inv)))
    return len(j_values)


def test_eichler_class_number_of_a_prime_counts_supersingular_j_invariants():
    # Deuring: the maximal-order classes of the algebra ramified at {ell, oo}
    # match the supersingular j-invariants in characteristic ell
    for ell in [ell for ell in range(5, 62) if all(ell % d for d in range(2, ell))]:
        assert eichler_class_number(ell) == _supersingular_j_count(ell), ell


def test_eichler_lower_bound():
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            h = eichler_class_number(2 * p * q)
            assert h >= (p - 1) * (q - 1) / 12
