from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import alquot.ntheory
from alquot.ntheory import (
    INFINITY,
    Place,
    hilbert_symbol,
    hilbert_symbol_oracle,
    is_prime,
    is_squarefree,
    kronecker,
    legendre,
    prime_factors,
    valuation,
)
from test_parity import _count_calls

SMALL_PLACES = [INFINITY, Place(2), Place(3), Place(5), Place(7), Place(13)]
nonzero = st.integers(-50, 50).filter(lambda n: n != 0)


def test_is_prime_examples():
    assert is_prime(2)
    assert not is_prime(1)
    assert not is_prime(85)


@pytest.mark.parametrize("n", [5.0, 4.0, 1.5, "5", None])
def test_is_prime_refuses_a_non_int(n):
    with pytest.raises(TypeError, match="primality is defined for ints"):
        is_prime(n)


def test_every_int_entry_point_refuses_a_float_prime():
    # each one proves its primes through is_prime; a bool is an int
    assert not is_prime(True) and not is_prime(False)
    assert kronecker(True, 3) == legendre(True, 3) == hilbert_symbol(True, -1, INFINITY) == 1
    for call in (
        lambda: Place(5.0),
        lambda: alquot.check_admissible(5.0, 17),
        lambda: alquot.genus_VB(5.0, 17),
        lambda: alquot.certify(5.0, 17),
        lambda: alquot.certify(5, 17.0),
    ):
        with pytest.raises(TypeError, match="not float"):
            call()


def test_every_factoring_entry_point_refuses_a_float():
    # a float loses its low digits: prime_factors(15.0) gave (3, 5.0),
    # is_squarefree(15.0) True and valuation(75.0, 5) (2, 3.0)
    B = alquot.QuaternionAlgebra(frozenset({Place(2), Place(3)}))
    for call in (
        lambda: prime_factors(15.0),
        lambda: is_squarefree(15.0),
        lambda: valuation(75.0, 5),
        lambda: alquot.quad_field_splits(15.0, B),
        lambda: alquot.eichler_class_number(15.0),
        lambda: alquot.ramified_places(15.0, 7),
        lambda: alquot.ramified_places(7, 15.0),
    ):
        with pytest.raises(TypeError, match="not float"):
            call()


# a float loses its low digits: kronecker(float(2 * 5**23 + 1), 5) gave -1
# for the exact +1, and hilbert_symbol(float(3 * 5**23), 2, Place(5)) +1 for
# -1; class_number(Fraction(-20)) gave 2, and the others failed only by
# accident, deep inside the computation
NON_INT_ENTRY_POINTS = {
    "kronecker-a": lambda make: kronecker(make(2 * 5**23 + 1), 5),
    "kronecker-n": lambda make: kronecker(3, make(5)),
    "hilbert_symbol-a": lambda make: hilbert_symbol(make(3 * 5**23), 2, Place(5)),
    "hilbert_symbol-b": lambda make: hilbert_symbol(2, make(3 * 5**23), Place(5)),
    "legendre": lambda make: legendre(make(2), 5),
    "class_number": lambda make: alquot.class_number(make(-20)),
    "reduced_forms": lambda make: alquot.reduced_forms(make(-20)),
    "enumerate_admissible": lambda make: alquot.enumerate_admissible(make(200)),
}


@pytest.mark.parametrize("make", [float, Fraction, Decimal, str], ids=lambda make: make.__name__)
@pytest.mark.parametrize("entry", NON_INT_ENTRY_POINTS)
def test_symbol_class_number_and_bound_entry_points_refuse_a_non_int(entry, make):
    with pytest.raises(TypeError, match=f"for ints, not {make.__name__}$"):
        NON_INT_ENTRY_POINTS[entry](make)


@pytest.mark.parametrize("v", [5, "5", None], ids=repr)
@pytest.mark.parametrize("symbol", [hilbert_symbol, hilbert_symbol_oracle], ids=lambda f: f.__name__)
def test_hilbert_symbols_refuse_a_place_that_is_not_a_place(symbol, v):
    with pytest.raises(TypeError, match=f"at a Place, not {type(v).__name__}$"):
        symbol(3, 5, v)


def test_is_prime_agrees_with_sieve():
    limit = 2000
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, limit):
        if sieve[i]:
            for j in range(i * i, limit, i):
                sieve[j] = False
    for n in range(limit):
        assert is_prime(n) == sieve[n]


def test_place_requires_prime():
    with pytest.raises(ValueError):
        Place(6)
    assert Place(7).is_finite
    assert not INFINITY.is_finite
    assert str(INFINITY) == "inf"


def test_place_hash_follows_equality():
    # Place hashes as its prime; equality stays between Places alone
    for v in SMALL_PLACES:
        twin = Place(v.prime)
        assert twin == v and hash(twin) == hash(v)
        assert twin in set(SMALL_PLACES) and twin in frozenset(SMALL_PLACES)
    assert Place(5) != 5 and 5 != Place(5)
    assert 5 not in {Place(5)} and Place(5) not in frozenset({5, None})
    assert len({Place(5), 5, INFINITY, None}) == 4
    assert Place(11) not in frozenset(SMALL_PLACES)


def test_place_equality_compares_primes():
    # a proven Place equals the one that proves its prime
    assert Place(5) == Place._proven(5) and hash(Place(5)) == hash(Place._proven(5))
    assert INFINITY == Place(None) and hash(INFINITY) == hash(Place(None))
    assert INFINITY != Place(2) and Place(2) != INFINITY
    assert Place(5) != Place(7)
    # against anything but a Place, equality defers to the other side
    assert Place(5) != 5 and Place.__eq__(Place(5), 5) is NotImplemented
    assert Place.__eq__(INFINITY, None) is NotImplemented
    for v in SMALL_PLACES:
        for w in SMALL_PLACES:
            assert (v == w) == (v.prime == w.prime)
            if v == w:
                assert hash(v) == hash(w)


def test_valuation_examples():
    assert valuation(-85, 5) == (1, -17)
    assert valuation(12, 2) == (2, 3)
    assert valuation(7, 3) == (0, 7)
    with pytest.raises(ValueError):
        valuation(0, 5)


def test_legendre_examples():
    assert legendre(1, 17) == 1
    squares_mod_17 = {x * x % 17 for x in range(1, 17)}
    assert 5 not in squares_mod_17
    assert legendre(5, 17) == -1
    assert legendre(2, 7) == 1  # 3^2 = 2 mod 7
    assert legendre(34, 17) == 0
    with pytest.raises(ValueError):
        legendre(3, 2)
    with pytest.raises(ValueError):
        legendre(3, 9)


@given(st.integers(-200, 200), st.sampled_from([3, 5, 7, 11, 13, 17, 19, 97]))
def test_legendre_euler_criterion(a, p):
    s = legendre(a, p)
    assert s == legendre(a % p, p)
    assert (pow(a, (p - 1) // 2, p) - s) % p == 0


def test_kronecker_examples():
    assert kronecker(-4, 5) == 1
    assert kronecker(-3, 2) == -1
    assert kronecker(-3, 17) == -1
    # (a/-1) is -1 exactly for a < 0, so 0 is a unit there
    assert [kronecker(a, -1) for a in (-3, 0, 3)] == [-1, 1, 1]


def test_kronecker_at_zero_is_one_only_for_units():
    assert [kronecker(a, 0) for a in (1, -1, 0, 2, -3)] == [1, 1, 0, 0, 0]


def test_kronecker_at_two():
    for a in range(-40, 41):
        expected = 0 if a % 2 == 0 else (1 if a % 8 in (1, 7) else -1)
        assert kronecker(a, 2) == expected


@given(st.integers(-60, 60), st.integers(-40, 40).filter(bool), st.integers(-40, 40).filter(bool))
def test_kronecker_multiplicative_in_n(a, m, n):
    assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


@given(st.integers(-200, 200), st.sampled_from([3, 5, 7, 11, 13, 17]))
def test_kronecker_matches_legendre(a, p):
    assert kronecker(a, p) == legendre(a, p)


def test_hilbert_examples():
    for b in (1, -1, 2, -17, 85):
        for v in SMALL_PLACES:
            assert hilbert_symbol(1, b, v) == 1
    assert hilbert_symbol(-1, -1, INFINITY) == -1
    assert hilbert_symbol(-1, -85, Place(5)) == 1
    assert hilbert_symbol(-5, -17, Place(17)) == -1
    with pytest.raises(ValueError):
        hilbert_symbol(0, 3, Place(5))
    with pytest.raises(ValueError):
        hilbert_symbol(3, 0, INFINITY)


def test_oracle_examples():
    assert hilbert_symbol_oracle(-1, -1, Place(2)) == -1
    assert hilbert_symbol_oracle(-1, -1, Place(3)) == 1
    assert hilbert_symbol_oracle(2, 3, INFINITY) == 1


def test_hilbert_symbol_trusts_its_place(monkeypatch):
    place = Place(1000003)  # the one primality proof
    primality = _count_calls(monkeypatch, alquot.ntheory.is_prime)
    assert hilbert_symbol(1000003, 3, place) == kronecker(3, 1000003)
    assert hilbert_symbol(-1, 2 * 1000003, place) == kronecker(-1, 1000003)
    assert hilbert_symbol(3, 5, place) == 1
    assert primality == []


def test_oracle_square_tables_are_bounded():
    maxsize = alquot.ntheory._square_tables.cache_info().maxsize
    assert maxsize is not None and maxsize <= 64


@pytest.mark.parametrize(("a", "b"), [(0, 3), (3, 0), (0, 0)])
def test_oracle_rejects_a_zero_argument(a, b):
    with pytest.raises(ValueError, match="nonzero arguments"):
        hilbert_symbol_oracle(a, b, Place(5))


def test_oracle_rejects_oversized_search():
    with pytest.raises(ValueError):
        hilbert_symbol_oracle(2**40, 3, Place(2))


@pytest.mark.parametrize(
    ("a", "b", "p", "symbol"),
    [
        (2**8 * 3, 5, 2, 1),  # search modulus 2^19
        (2**8 * 3, -5, 2, -1),
        (3**5, -2, 3, 1),  # search modulus 3^11
        (3**5, 2, 3, -1),
        (3, 5, 1031, 1),  # search modulus 1031, where 1031^2 > 2^20
    ],
)
def test_oracle_agrees_at_the_largest_admitted_moduli(a, b, p, symbol):
    assert hilbert_symbol_oracle(a, b, Place(p)) == hilbert_symbol(a, b, Place(p)) == symbol
    with pytest.raises(ValueError, match="exceeds the exhaustive budget"):
        hilbert_symbol_oracle(p * a, b, Place(p))  # one valuation more


@pytest.mark.parametrize(
    "p, k", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (7, 1), (11, 1)]
)
def test_oracle_scans_find_every_primitive_zero(p, k):
    # the oracle scans only x = 1 and y = 1; search every primitive triple
    n = p**k
    triples = [t for t in product(range(n), repeat=3) if any(c % p for c in t)]
    for a in range(n):
        for b in range(n):
            expected = any((a * x * x + b * y * y - z * z) % n == 0 for x, y, z in triples)
            assert alquot.ntheory._primitive_solution_exists(a, b, n) == expected, (a, b, n)


def test_oracle_uses_no_closed_formula(monkeypatch):
    def formula(*args):
        raise AssertionError("the oracle called a closed formula")

    for name in ("kronecker", "legendre", "hilbert_symbol"):
        monkeypatch.setattr(alquot.ntheory, name, formula)
    assert hilbert_symbol_oracle(-1, -1, Place(2)) == -1
    assert hilbert_symbol_oracle(-5, -17, Place(17)) == -1
    assert hilbert_symbol_oracle(-1, -85, Place(5)) == 1


@settings(max_examples=150)
@given(nonzero, nonzero, st.sampled_from(SMALL_PLACES))
def test_hilbert_symmetry(a, b, v):
    assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)


@settings(max_examples=150)
@given(nonzero, nonzero, nonzero, st.sampled_from(SMALL_PLACES))
def test_hilbert_bimultiplicative(a, a2, b, v):
    assert hilbert_symbol(a * a2, b, v) == hilbert_symbol(a, b, v) * hilbert_symbol(a2, b, v)


@settings(max_examples=150)
@given(nonzero, nonzero, st.sampled_from(SMALL_PLACES))
def test_hilbert_oracle_agreement_sampled(a, b, v):
    assert hilbert_symbol(a, b, v) == hilbert_symbol_oracle(a, b, v)


@settings(max_examples=200)
@given(nonzero, nonzero)
def test_product_formula_sampled(a, b):
    places = [INFINITY] + [Place(p) for p in prime_factors(2 * a * b)]
    product = 1
    for v in places:
        product *= hilbert_symbol(a, b, v)
    assert product == 1
    for extra in (11, 19, 23, 101):
        if extra not in prime_factors(2 * a * b):
            assert hilbert_symbol(a, b, Place(extra)) == 1


def test_prime_factors_and_squarefree():
    assert prime_factors(-84) == (2, 3, 7)
    assert prime_factors(1) == ()
    with pytest.raises(ValueError):
        prime_factors(0)
    assert is_squarefree(30)
    assert not is_squarefree(12)
    assert not is_squarefree(0)
    assert is_squarefree(-15)
    # reference: a smallest-prime-factor sieve, independent of trial division
    spf = list(range(2000))
    for d in range(2, 45):
        if spf[d] == d:
            for m in range(d * d, 2000, d):
                spf[m] = min(spf[m], d)
    for m in range(1, 2000):
        factors, squarefree, rest = [], True, m
        while rest > 1:
            ell = spf[rest]
            factors.append(ell)
            rest //= ell
            if rest % ell == 0:
                squarefree = False
                while rest % ell == 0:
                    rest //= ell
        for n in (m, -m):
            assert prime_factors(n) == tuple(factors), n
            assert is_squarefree(n) == squarefree, n
    big = 10**12 + 39  # prime
    assert prime_factors((10**6 + 3) ** 2) == (10**6 + 3,)
    assert not is_squarefree((10**6 + 3) ** 2)
    assert prime_factors(2 * big) == (2, big)
    assert is_squarefree(2 * big)
