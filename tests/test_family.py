"""The family theorem: every admissible pair is odd (steps 1-3), and
every p of the family has infinitely many q (step 4).

Write an admissible pair as p = 24a + 5 and q = 12b + 5, with (p/q) = -1.
Steps 1-3 predict certificate fields from these residues alone: no
prediction calls ``class_number``, a Hilbert symbol or the Eichler-Shimura
factors ``_local_factors``.  Step 4 predicts the q of each p from the
squares mod p alone.  The tests compare the predictions with every row of
a certified table.  A disagreement means either the derivation or the
program is wrong, and the failing assertion names the row.

1. Genus.  p and q are 1 mod 4 and 2 mod 3, so e_2 = 0 and e_3 = 4, and
   g_VB = 1 + (p-1)(q-1)/12 - 4/3 = 24ab + 8a + 4b + 1.  So g_VB = 1 mod 8
   when q = 5 mod 24 (b even) and 5 mod 8 when q = 17 mod 24.
2. Fixed points.  p ramifies in Q(sqrt(-p)), and q is inert there, since
   (-p/q) = (-1/q)(p/q) = -1; so the field splits B and e_p = 2h(-4p).
   Genus theory gives 2 | h(-4p) (Cox, *Primes of the Form x^2 + ny^2*,
   section 3), and the Redei-Reichardt 4-rank gives 4 does not divide
   h(-4p) for p = 5 mod 8 (J. reine angew. Math. 170, 1934), which is
   cited, not re-proved.  So e_p = 4 mod 8, and
   g_quotient = (g_VB + 1)/2 - e_p/4 = (12ab + 4a + 2b + 1) - e_p/4 is
   odd minus odd, even.
3. Ledger.  At oo: p ramifies in Q(sqrt(p)) and q is inert, so that real
   field splits B and oo is not deficient.  At p the uniformization fact
   is cited: not deficient.  At q: both primes are 1 mod 4 and
   (p/q) = (q/p) = -1, which fixes every Hilbert symbol the criterion
   reads (Serre, *A Course in Arithmetic*, ch. III, Thm. 1).
   B(-1, -pq) ramifies exactly at {oo, 2}, B(-p, -q) at {oo, 2, p, q},
   and B interchanged at p at {oo, q}; it matches neither, so q is
   deficient.  One deficient place makes the verdict odd.
4. Infinitely many q.  As p = 1 mod 4, reciprocity gives (p/q) = (q/p),
   so the q of p are the primes q = 5 mod 12 that are nonresidues mod p.
   By the Chinese remainder theorem these are the primes in (p-1)/2
   classes mod 12p, one for each nonresidue, and each class is prime to
   12p.  Dirichlet's theorem on primes in arithmetic progressions, which
   is cited, not re-proved, puts infinitely many primes in each class.
   So every p = 5 mod 24 has infinitely many q, and by steps 1-3 each
   pair (p, q) is odd.
"""

from alquot.cli import _row
from alquot.ntheory import INFINITY, Place, hilbert_symbol, hilbert_symbol_oracle
from alquot.parity import _certify_table, enumerate_admissible
from alquot.quaternion import QuaternionAlgebra, interchange

# the largest table that adds about a second to tier-1: in process, on a
# 2-core Xeon with Python 3.11, --max 8000 is 16,556 rows in 0.4 s,
# --max 12000 33,419 rows in 1.0-1.2 s and --max 16000 53,974 rows in 1.8 s
TABLE_BOUND = 12000
SYMBOL_BOUND = 3000


def _primes(bound: int) -> list[int]:
    """The primes up to bound, from a sieve."""
    sieve = bytearray([1]) * (bound + 1)
    sieve[:2] = b"\0\0"
    for n in range(2, int(bound**0.5) + 1):
        if sieve[n]:
            sieve[n * n :: n] = bytes(len(range(n * n, bound + 1, n)))
    return [n for n in range(bound + 1) if sieve[n]]


def _family(bound: int) -> list[tuple[int, int]]:
    """The admissible pairs up to bound, from a sieve and Euler's criterion:
    p = 5 mod 24 and q = 5 mod 12 prime, p != q and p^((q-1)/2) = -1 mod q."""
    primes = _primes(bound)
    ps = [p for p in primes if p % 24 == 5]
    qs = [q for q in primes if q % 12 == 5]
    return [(p, q) for p in ps for q in qs if p != q and pow(p, (q - 1) // 2, q) == q - 1]


def _predicted_row(p: int, q: int) -> tuple:
    """Steps 1-3: the row's fields, e_p mod 8 and g_quotient mod 2 in
    place of e_p and g_quotient, from p = 24a + 5 and q = 12b + 5."""
    assert p % 24 == 5 and q % 12 == 5, (p, q)
    a, b = (p - 5) // 24, (q - 5) // 12
    g_VB = 24 * a * b + 8 * a + 4 * b + 1
    assert g_VB % 8 == (1 if q % 24 == 5 else 5), (p, q)
    return p, q, p * q, g_VB, 4, 0, (str(q),), "odd"


def _reduced_row(row: tuple) -> tuple:
    """The fields of a ``cli._row`` that steps 1-3 predict, with e_p mod 8
    and g_quotient mod 2 in place of e_p and g_quotient."""
    p, q, disc, g_VB, e_p, g_quotient, places, verdict, _, _ = row
    return p, q, disc, g_VB, e_p % 8, g_quotient % 2, places, verdict


def test_every_row_of_the_table_is_predicted_by_its_residues():
    got = [_reduced_row(_row(cert)) for cert in _certify_table(enumerate_admissible(TABLE_BOUND))]
    predicted = [_predicted_row(p, q) for p, q in _family(TABLE_BOUND)]
    assert len(got) == len(predicted) == 33419
    for row, prediction in zip(got, predicted):
        assert row == prediction, f"the row {row} is not the prediction {prediction}"


def _predicted_symbols(p: int, q: int) -> dict[tuple[int, int], tuple[int, int, int, int]]:
    """Step 3: (a, b)_v at v = oo, 2, p, q for the two symbol algebras,
    from the residues of p and q mod 4 and (p/q) = -1 alone."""
    def minus_one(l):  # (-1/l), the first supplement
        return 1 if l % 4 == 1 else -1

    def at_two(u, w):  # odd u and w are 2-adic units: (-1)^(eps(u) eps(w))
        return -1 if u % 4 == w % 4 == 3 else 1

    p_q = -1  # (p/q), by admissibility
    q_p = p_q * (-1 if p % 4 == q % 4 == 3 else 1)  # (q/p), by reciprocity
    return {
        # oo: both arguments negative; p and q: v_l(-pq) = 1, so (-1/l)
        (-1, -p * q): (-1, at_two(-1, -p * q), minus_one(p), minus_one(q)),
        # p: v_p(-p) = 1, so (-q/p); q: v_q(-q) = 1, so (-p/q)
        (-p, -q): (-1, at_two(-p, -q), minus_one(p) * q_p, minus_one(q) * p_q),
    }


def _ramified(p: int, q: int, symbols: tuple[int, int, int, int]) -> frozenset:
    return frozenset(v for v, s in zip((INFINITY, Place(2), Place(p), Place(q)), symbols) if s == -1)


def test_the_symbol_table_is_predicted_by_its_residues():
    pairs = _family(SYMBOL_BOUND)
    assert len(pairs) == 3172
    for p, q in pairs:
        P, Q = Place(p), Place(q)
        places = (INFINITY, Place(2), P, Q)
        predicted = _predicted_symbols(p, q)
        assert _ramified(p, q, predicted[-1, -p * q]) == {INFINITY, Place(2)}, (p, q)
        assert _ramified(p, q, predicted[-p, -q]) == {INFINITY, Place(2), P, Q}, (p, q)
        for (x, y), symbols in predicted.items():
            assert tuple(hilbert_symbol(x, y, v) for v in places) == symbols, (p, q, x, y)
        # B interchanged at p is neither symbol algebra, so q is deficient
        assert interchange(QuaternionAlgebra(frozenset({P, Q})), p).ram_set == {INFINITY, Q}, (p, q)


def test_the_symbol_table_of_small_pairs_is_the_oracles():
    for p, q in [(5, 17), (29, 17), (5, 53)]:
        places = (INFINITY, Place(2), Place(p), Place(q))
        for (x, y), symbols in _predicted_symbols(p, q).items():
            assert tuple(hilbert_symbol_oracle(x, y, v) for v in places) == symbols, (p, q, x, y)


def _classes_mod_12p(p: int) -> set[int]:
    """Step 4: the classes mod 12p of the q of p, q = 5 mod 12 and
    (q/p) = -1, from the squares mod p alone: by the Chinese remainder
    theorem, one class for each nonresidue r mod p."""
    squares = {x * x % p for x in range(1, p)}
    twelfth = pow(12, -1, p)
    return {5 + 12 * ((r - 5) * twelfth % p) for r in range(1, p) if r not in squares}


def test_the_q_of_each_p_are_the_primes_in_its_classes_mod_12p():
    table = {}
    for pair in enumerate_admissible(TABLE_BOUND):
        table.setdefault(pair.p, []).append(pair.q)
    primes = _primes(TABLE_BOUND)
    ps = [p for p in primes if p % 24 == 5]
    assert len(ps) == len(table)
    for p in ps:
        classes = _classes_mod_12p(p)
        assert len(classes) == (p - 1) // 2, p
        assert table[p] == [q for q in primes if q % (12 * p) in classes], p
