import math
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from alquot import quadforms
from alquot.ntheory import is_prime, is_squarefree, kronecker
from alquot.quadforms import _reduced_form_count, _root_counts, class_number, reduced_forms


def _forms(D):
    return set(reduced_forms(D))


def _primes_to(n):
    """The primes up to n, by trial division: no sieve of the module's."""
    return [p for p in range(n + 1) if is_prime(p)]


def test_reduced_forms_examples():
    assert _forms(-3) == {(1, 1, 1)}  # not (1, -1, 1): b >= 0 when |b| = a
    assert _forms(-4) == {(1, 0, 1)}
    assert _forms(-12) == {(1, 0, 3)}  # not (2, 2, 2): imprimitive
    assert _forms(-15) == {(1, 1, 4), (2, 1, 2)}  # not (2, -1, 2): b >= 0 when a = c
    assert _forms(-16) == {(1, 0, 4)}  # not (2, 0, 2): imprimitive
    assert _forms(-20) == {(1, 0, 5), (2, 2, 3)}  # not (2, -2, 3): b >= 0 when |b| = a
    assert _forms(-23) == {(1, 1, 6), (2, 1, 3), (2, -1, 3)}
    # h(-164) = 8; (7, 2, 6) and (7, -2, 6) have a > c
    assert _forms(-164) == {
        (1, 0, 41), (2, 2, 21), (3, 2, 14), (3, -2, 14), (5, 4, 9), (5, -4, 9), (6, 2, 7), (6, -2, 7)
    }


def test_classic_class_numbers():
    assert class_number(-4) == 1
    assert class_number(-20) == 2
    assert class_number(-116) == 6
    assert class_number(-15) == 2
    assert class_number(-23) == 3


def test_rejects_non_discriminants():
    for bad in (0, 4, -6, -1, -2):
        with pytest.raises(ValueError):
            reduced_forms(bad)


def test_every_form_satisfies_the_invariants():
    for D in (-3, -4, -15, -20, -23, -116, -420, -1000004):
        if D % 4 not in (0, 1):
            continue
        for a, b, c in reduced_forms(D):
            assert b * b - 4 * a * c == D
            assert a > 0  # positive definite, as D < 0
            assert abs(b) <= a <= c and not (b < 0 and (abs(b) == a or a == c))  # reduced
            assert math.gcd(math.gcd(a, b), c) == 1  # primitive


def test_class_number_positive():
    for D in range(-200, 0):
        if D % 4 in (0, 1):
            assert class_number(D) >= 1


@pytest.mark.parametrize("abc", [(4, 0, 3), (5, 2, 4), (5, -1, 4)])
def test_form_outside_the_reduction_bounds_is_not_reduced(abc):
    # primitive, and reached by the scan over a <= sqrt(|D|/3) and |b| <= a
    # at D = -48, -76 and -79, but a > c
    a, b, c = abc
    assert abc not in reduced_forms(b * b - 4 * a * c)


# f^2 d0 for fundamental d0: square parts 2^2, 2^4, 2^6, 3^2, 5^2, 7^2 and
# products of them, whose Moebius sums have up to eight terms; d0 = -8 and
# -24 put an odd power of 2 in D, so D/4 is no discriminant
_SQUARE_PARTS = [f * f * d0 for f in (2, 4, 8, 3, 5, 7, 6, 12, 30, 42) for d0 in (-3, -4, -7, -8, -24, -103)]
# D = -4k^2 puts the form (k, 0, k) at the edge a = c = sqrt(|D|)/2 of the
# bulk, and D = -3k^2 the form (k, k, k) at the edge a = sqrt(|D|/3) of the
# band; k = 64, 27 and 625 reach the a divisible by 2^6, 3^3 and 5^4
_EDGES = [-4 * k * k for k in (1, 2, 3, 5, 12, 64, 97, 210)] + [-3 * k * k for k in (1, 2, 3, 4, 9, 27, 101, 625)]


def test_class_number_counts_the_reference_forms():
    for D in [*range(-5000, -2), *_SQUARE_PARTS, *_EDGES]:
        if D % 4 in (0, 1):
            assert class_number(D) == len(reduced_forms(D)), D


@settings(max_examples=25, deadline=None)
@given(st.builds(lambda k, r: r - 4 * k, st.integers(1, 200_000), st.sampled_from((0, 1))))
def test_class_number_counts_the_reference_forms_to_800000(D):
    assert -800_000 <= D <= -3
    assert class_number(D) == len(reduced_forms(D))


def test_class_number_at_a_large_prime():
    # as Cohen's divisor loop (Algorithm 5.3.5) counts it; acceptance
    # criterion 10 pins h(-4 * 99999989) = 9974 with its time budget
    assert class_number(-4 * 10_000_229) == 3150


def _prime_1_mod_4_from(n):
    p = n + (1 - n) % 4
    while not is_prime(p):
        p += 4
    return p


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 199_000).map(_prime_1_mod_4_from))
def test_class_number_counts_the_reference_forms_at_large_primes(p):
    assert p <= 200_000
    assert class_number(-4 * p) == len(reduced_forms(-4 * p))


def _is_fundamental(D):
    if D % 4 == 1:
        return is_squarefree(D)
    return D % 4 == 0 and (D // 4) % 4 in (2, 3) and is_squarefree(D // 4)


def _analytic_class_number(D):
    """Dirichlet's class number formula for fundamental D < -4, in exact
    integers: h(D) = -(1/|D|) * sum of (D/a) a over 0 < a < |D|.  It uses
    no binary quadratic forms at all."""
    total = sum(kronecker(D, a) * a for a in range(1, -D))
    h, remainder = divmod(-total, -D)
    assert remainder == 0
    return h


def test_class_number_matches_the_analytic_formula():
    discriminants = [D for D in range(-2000, -4) if _is_fundamental(D)]
    discriminants.append(-4 * 1013)
    for D in discriminants:
        assert class_number(D) == _analytic_class_number(D), D
    # tabulated class numbers of Q(sqrt(-p))
    assert [_analytic_class_number(-4 * p) for p in (5, 13, 29, 53, 101, 173)] == [2, 2, 6, 6, 14, 14]


def _brute_root_count(d, a):
    """rho(a) from its definition, #{x mod 2a : x^2 = d mod 4a}."""
    return sum(1 for x in range(2 * a) if (x * x - d) % (4 * a) == 0)


# d with an odd square factor l^v (v >= 2), so the local factor at l comes
# from _root_count, not from 1 + (d/l); u = 1 and 4 make d a power of l
# (times 4), and 3, 7, 15, 20, 28 add a unit part
_ODD_SQUARE_PARTS = [-(ell**v) * u for ell in (3, 5, 7, 11) for v in (2, 3, 4, 5) for u in (1, 4, 3, 7, 15, 20, 28)
                     if ell**v * u <= 100_000 and -(ell**v) * u % 4 in (0, 1)]


def test_root_counts_are_the_square_roots_mod_4a():
    # the band reads rho(a) as a count, so every entry up to sqrt(|d|/3) matters
    for d in [*range(-2000, -2), *_ODD_SQUARE_PARTS, *_SQUARE_PARTS]:
        if d % 4 in (0, 1):
            top = math.isqrt(-d // 3)
            rho = _root_counts(d, top, _primes_to(top))
            assert rho[1:] == [_brute_root_count(d, a) for a in range(1, top + 1)], d


def _all_reduced_form_count(d):
    """N(d) by the classical scan: the reduced forms of discriminant d < 0,
    primitive or not, those with |b| <= a <= c and b >= 0 whenever |b| = a
    or a = c."""
    count = 0
    for a in range(1, math.isqrt(-d // 3) + 1):
        for b in range(-a, a + 1):
            c, r = divmod(b * b - d, 4 * a)
            count += r == 0 and a <= c and not (b < 0 and (-b == a or a == c))
    return count


def test_band_rows_counted_from_the_short_side():
    # a band row a0 < a <= sqrt(|d|/3) whose least b0 with c >= a is below
    # a/2 is counted as rho(a) less the roots with |b| < b0.  Each boundary
    # of that complement occurs below, and N(d) is checked at every d where
    # one does, so a miscounted boundary changes a checked count
    hits = {"root at b = a": 0, "form with c = a at b = b0": 0, "root x = 0": 0}
    for d in [*range(-5000, -2), *_ODD_SQUARE_PARTS, *_EDGES]:
        if d % 4 not in (0, 1):
            continue
        top = math.isqrt(-d // 3)
        found = False
        for a in range(math.isqrt(-d) // 2 + 1, top + 1):
            b0 = next(b for b in range(-d % 2, a + 2, 2) if b * b >= 4 * a * a + d)
            if 2 * b0 < a and _brute_root_count(d, a):
                cases = ((a * a - d) % (4 * a) == 0, b0 * b0 == 4 * a * a + d, d % (4 * a) == 0)
                for name, case in zip(hits, cases):
                    hits[name] += case
                found = found or any(cases)
        if found:
            assert _reduced_form_count(d, _primes_to(top)) == _all_reduced_form_count(d), d
    assert all(hits.values()), hits


@pytest.mark.parametrize("grown", [False, True], ids=["first-use", "grown"])
def test_prime_table_is_the_sieve_and_stays_capped(monkeypatch, grown):
    # n on both sides of the cap, each read off an empty table or off the
    # table the reads before it grew; 16411 is the least prime past the cap
    monkeypatch.setattr(quadforms, "_prime_table", (b"", ()))
    cap = quadforms._PRIME_CAP
    assert quadforms._sieve(1) == bytearray(2)  # the least n the sieve takes
    for n in (1, 2, 3, 4, 100, 1000, 11547, cap - 1, cap, cap + 1, 16411, 2 * cap, 3, 70_000):
        if not grown:
            monkeypatch.setattr(quadforms, "_prime_table", (b"", ()))
        assert list(quadforms._primes(n)) == _primes_to(n), n
        sieve, primes = quadforms._prime_table
        assert len(sieve) <= (1 << 14) + 1  # the bound the module documents
        assert list(primes) == (_primes_to(len(sieve) - 1) if sieve else [])


def test_prime_table_grows_under_concurrent_readers(monkeypatch):
    # each reader sees a whole table, the old one or the new one: a reader
    # that caught one half-built would list the wrong primes
    monkeypatch.setattr(quadforms, "_prime_table", (b"", ()))
    bounds = [1, 10, 100, 1000, 5000, 11547, 20000]
    expected = {n: _primes_to(n) for n in bounds}
    errors = []

    def read():
        for n in bounds * 3:
            if list(quadforms._primes(n)) != expected[n]:
                errors.append(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
