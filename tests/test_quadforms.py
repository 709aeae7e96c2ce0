import pytest
from hypothesis import given, settings, strategies as st

from alquot.ntheory import is_prime, is_squarefree, kronecker
from alquot.quadforms import QuadraticForm, class_number, reduced_forms


def _forms(D):
    return {(f.a, f.b, f.c) for f in reduced_forms(D)}


def test_reduced_forms_examples():
    assert _forms(-4) == {(1, 0, 1)}
    assert _forms(-20) == {(1, 0, 5), (2, 2, 3)}
    assert _forms(-3) == {(1, 1, 1)}


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
        for f in reduced_forms(D):
            assert f.discriminant() == D
            assert f.is_positive_definite
            assert f.is_reduced
            assert f.is_primitive


def test_class_number_positive():
    for D in range(-200, 0):
        if D % 4 in (0, 1):
            assert class_number(D) >= 1


def test_congruence_for_5_mod_8_primes_sampled():
    # full range is covered by the acceptance suite
    for p in range(5, 600, 8):
        if is_prime(p):
            assert class_number(-4 * p) % 4 == 2


def test_form_dataclass():
    f = QuadraticForm(2, 2, 3)
    assert f.discriminant() == -20
    assert QuadraticForm(2, -2, 3).is_reduced is False
    assert QuadraticForm(2, 4, 6).is_primitive is False
    # positive definite needs both a > 0 and a negative discriminant
    assert QuadraticForm(1, 3, 1).is_positive_definite is False
    assert QuadraticForm(-1, 0, -1).is_positive_definite is False


@pytest.mark.parametrize("abc", [(2, 3, 4), (2, -3, 4), (3, 1, 2)])
def test_form_outside_the_reduction_bounds_is_not_reduced(abc):
    # |b| <= a <= c fails: |b| > a in the first two, a > c in the last
    assert QuadraticForm(*abc).is_reduced is False


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
