"""Class numbers of imaginary quadratic orders by counting reduced forms.

The class number of discriminant D < 0 is the number of reduced primitive
positive-definite binary quadratic forms a x^2 + b x y + c y^2 of that
discriminant.  ``class_number`` counts them without building them, by the
b-major divisor loop of Cohen's Algorithm 5.3.5: for each b it reads the
forms off the divisors a of (b^2 - D)/4.  ``reduced_forms`` lists the forms
themselves by the classical scan over (a, b) with a <= sqrt(|D|/3); it is
the reference the count is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["QuadraticForm", "reduced_forms", "class_number"]


@dataclass(frozen=True, order=True)
class QuadraticForm:
    """The integral binary quadratic form a x^2 + b x y + c y^2."""

    a: int
    b: int
    c: int

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    @property
    def is_positive_definite(self) -> bool:
        return self.a > 0 and self.discriminant() < 0

    @property
    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if not (abs(b) <= a <= c):
            return False
        if (abs(b) == a or a == c) and b < 0:
            return False
        return True

    @property
    def is_primitive(self) -> bool:
        return math.gcd(math.gcd(self.a, self.b), self.c) == 1


def _check_discriminant(D: int) -> None:
    if D >= 0:
        raise ValueError("discriminant must be negative")
    if D % 4 not in (0, 1):
        raise ValueError("a discriminant is 0 or 1 mod 4")


def reduced_forms(D: int) -> frozenset[QuadraticForm]:
    """All reduced primitive positive-definite forms of discriminant D < 0.

    Reduced means |b| <= a <= c with b >= 0 whenever |b| = a or a = c; each
    proper equivalence class contains exactly one such form.
    """
    _check_discriminant(D)
    forms = []
    for a in range(1, math.isqrt(-D // 3) + 1):
        for b in range(-a, a + 1):
            if (b - D) % 2:
                continue
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if (abs(b) == a or a == c) and b < 0:
                continue
            if math.gcd(math.gcd(a, b), c) == 1:
                forms.append(QuadraticForm(a, b, c))
    return frozenset(forms)


def class_number(D: int) -> int:
    """h(D) = number of reduced primitive forms of discriminant D.

    Counted by Cohen's Algorithm 5.3.5 instead of enumerated: a reduced
    form has 0 <= |b| <= a <= c with b = D mod 2 and |b| <= sqrt(|D|/3), and
    for each such b >= 0 its (a, c) are the factorizations
    a c = (b^2 - D)/4 with max(b, 1) <= a <= c.  A primitive (a, |b|, c)
    stands for the two forms (a, +-b, c), except that b = 0, b = a and
    a = c each allow only b >= 0.  ``len(reduced_forms(D))`` is the
    reference count.

    For a prime p = 1 mod 4 the order Z[sqrt(-p)] is maximal, so
    class_number(-4p) is the class number of Q(sqrt(-p)).
    """
    _check_discriminant(D)
    h = 0
    for b in range(D % 2, math.isqrt(-D // 3) + 1, 2):
        n = (b * b - D) // 4
        for a in range(max(b, 1), math.isqrt(n) + 1):
            if n % a == 0 and math.gcd(math.gcd(a, b), n // a) == 1:
                h += 1 if b == 0 or b == a or a * a == n else 2
    return h
