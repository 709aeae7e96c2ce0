"""Acceptance suite: one test per criterion, exact tolerances, with the
stated runtime budget asserted.  Each test prints a single pass line
(visible with -v / -s); a failure keeps its diagnostic output."""

import json
import time
from random import Random

from alquot.cli import _row, main
from alquot.mumford_graph import (
    base_change,
    has_local_point,
    opposite,
    parse_graph,
    quotient_by_involution,
    quotient_edge_map,
    serialize_graph,
    validate,
)
from alquot.ntheory import (
    INFINITY,
    Place,
    hilbert_symbol,
    hilbert_symbol_oracle,
    prime_factors,
)
from alquot.parity import HyperellipticFlag, certify, hyperelliptic_sieve
from alquot.quadforms import class_number
from alquot.quaternion import (
    QuaternionAlgebra,
    eichler_class_number,
    interchange,
    ramified_places,
)
from alquot.shimura import AdmissiblePair, check_admissible, genus_VB
from graphgen import random_quotient_graph
from test_cli import CERTIFY_5_17_JSON, ENUMERATE_30_CSV, GRAPH_OK
from test_family import _predicted_row, _predicted_symbols, _reduced_row


def _admissible_pairs_with_disc_below(bound: int) -> list[AdmissiblePair]:
    pairs = []
    for p in range(5, bound // 5 + 1, 24):
        for q in range(5, bound // p + 1, 12):
            checked = check_admissible(p, q)
            if isinstance(checked, AdmissiblePair):
                pairs.append(checked)
    return sorted(pairs, key=lambda x: (x.p, x.q))


def _report(number: int, elapsed: float, budget: float, description: str) -> None:
    print(f"criterion {number} PASS ({elapsed:.1f}s < {budget:.0f}s): {description}")
    assert elapsed < budget


def test_criterion_1_hilbert_oracle_equivalence_and_product_formula():
    start = time.monotonic()
    places = [INFINITY] + [Place(p) for p in (2, 3, 5, 7, 11, 13, 17, 97)]
    values = [n for n in range(-50, 51) if n]
    for a in values:
        for b in values:
            for v in places:
                assert hilbert_symbol(a, b, v) == hilbert_symbol_oracle(a, b, v), (a, b, v)

    rng = Random(101)
    spares = [p for p in range(2, 400) if len(prime_factors(p)) == 1 and p == prime_factors(p)[0]]
    for _ in range(1000):
        a = rng.choice([n for n in range(-200, 201) if n])
        b = rng.choice([n for n in range(-200, 201) if n])
        support = set(prime_factors(2 * a * b))
        product = hilbert_symbol(a, b, INFINITY)
        for p in support:
            product *= hilbert_symbol(a, b, Place(p))
        assert product == 1, (a, b)
        extras = rng.sample([p for p in spares if p not in support], 10)
        for p in extras:
            assert hilbert_symbol(a, b, Place(p)) == 1, (a, b, p)
    _report(1, time.monotonic() - start, 30, "oracle equivalence and product formula")


def test_criterion_2_ramification_parity():
    start = time.monotonic()
    values = [n for n in range(-60, 61) if n]
    for a in values:
        for b in values:
            assert len(ramified_places(a, b)) % 2 == 0, (a, b)
    _report(2, time.monotonic() - start, 10, "ramification sets have even cardinality")


def test_criterion_3_class_number_congruence():
    start = time.monotonic()
    checked = 0
    for p in range(5, 10**4, 8):
        if len(prime_factors(p)) == 1 and prime_factors(p)[0] == p:
            assert class_number(-4 * p) % 4 == 2, p
            checked += 1
    assert checked > 100
    _report(3, time.monotonic() - start, 60, f"h(-4p) = 2 mod 4 for {checked} primes p = 5 mod 8")


def test_criterion_4_mass_formula_consistency():
    start = time.monotonic()
    pairs = _admissible_pairs_with_disc_below(10**4)
    assert pairs
    for pair in pairs:
        assert genus_VB(pair.p, pair.q) == _predicted_row(pair.p, pair.q)[3], pair
    _report(4, time.monotonic() - start, 10, f"mass formula reproduced on {len(pairs)} pairs")


def test_criterion_5_parity_certification():
    start = time.monotonic()
    pairs = _admissible_pairs_with_disc_below(10**4)
    assert pairs
    for pair in pairs:
        row = _reduced_row(_row(certify(pair.p, pair.q)))
        assert row == _predicted_row(pair.p, pair.q), pair
    _report(5, time.monotonic() - start, 60, f"odd verdict, deficient exactly at q, on {len(pairs)} pairs")


def test_criterion_6_criterion_non_isomorphism():
    start = time.monotonic()
    pairs = _admissible_pairs_with_disc_below(10**4)
    assert pairs
    for pair in pairs:
        p, q = pair.p, pair.q
        P, Q = Place(p), Place(q)
        for (a, b), symbols in _predicted_symbols(p, q).items():
            assert (hilbert_symbol(a, b, P), hilbert_symbol(a, b, Q)) == symbols[2:], (pair, a, b)
        # B interchanged at q is neither symbol algebra
        swapped = interchange(QuaternionAlgebra(frozenset({P, Q})), q)
        assert swapped != QuaternionAlgebra(ramified_places(-1, -p * q)), pair
        assert swapped != QuaternionAlgebra(ramified_places(-p, -q)), pair
    _report(6, time.monotonic() - start, 30, f"both isomorphism tests fail on {len(pairs)} pairs")


def _independent_possibly_hyperelliptic() -> list[tuple[int, int]]:
    # direct scan, sharing nothing with the package: sieve primality,
    # squaring tables for the residue condition
    limit = 250
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, limit):
        if sieve[i]:
            for j in range(i * i, limit, i):
                sieve[j] = False
    primes = [n for n in range(limit) if sieve[n]]
    out = []
    for p in primes:
        if p % 24 != 5:
            continue
        for q in primes:
            if q % 12 != 5 or q == p or (p - 1) * (q - 1) > 240:
                continue
            squares_mod_q = {x * x % q for x in range(1, q)}
            if p % q in squares_mod_q:
                continue
            out.append((p, q))
    return sorted(out)


def test_criterion_7_hyperelliptic_sieve():
    start = time.monotonic()
    assert eichler_class_number(170) == 8

    pairs = _admissible_pairs_with_disc_below(10**4)
    reports = hyperelliptic_sieve(pairs)
    for report in reports:
        # integrality of H(2pq) is enforced inside eichler_class_number
        assert report.definite_class_number >= 1

    flagged = sorted(
        (r.pair.p, r.pair.q) for r in reports if r.flag is HyperellipticFlag.POSSIBLY_HYPERELLIPTIC
    )
    oracle = _independent_possibly_hyperelliptic()
    assert flagged == oracle
    # the two derived pairs are confirmed by the oracle; it also finds (53, 5)
    assert {(5, 17), (5, 53)} <= set(flagged)
    _report(7, time.monotonic() - start, 10, f"possibly-hyperelliptic set {flagged} matches the oracle")


def test_criterion_8_graph_properties():
    start = time.monotonic()
    rng = Random(20240917)
    implication_hits = 0
    for trial in range(1000):
        g = random_quotient_graph(
            rng, max_extra_seed_vertices=2, max_extra_seed_edges=4, avoid_wq_edge_reversal=True
        )
        assert len(g.edge_endpoints) <= 50
        assert validate(g) == []
        wp, wq, wpq = (g.involutions[n] for n in ("wp", "wq", "wpq"))

        # quotient length rule: an even quotient length forces an even lift
        # or a wq-fixed lift
        quotient = quotient_by_involution(g, "wq")
        orbit = quotient_edge_map(g, "wq")
        for s in g.edge_endpoints:
            if quotient.edge_length[orbit[s]] % 2 == 0:
                assert g.edge_length[s] % 2 == 0 or wq[s] == s, (trial, s)

        # wq-fixed and wpq-reversed forces wp-reversed
        for s in g.edge_endpoints:
            if wq[s] == s and wpq[s] == opposite(s):
                implication_hits += 1
                assert wp[s] == opposite(s), (trial, s)

        # a class-exchanging frobenius fixes no vertex
        vertex_image = {}
        swaps = True
        for eid, (src, dst) in g.edge_endpoints.items():
            tsrc, tdst = g.edge_endpoints[wp[eid]]
            vertex_image[src] = tsrc
            vertex_image[dst] = tdst
        for v, image in vertex_image.items():
            if g.vertex_parity[v] == g.vertex_parity[image]:
                swaps = False
        if g.bipartite and swaps:
            for v, image in vertex_image.items():
                assert image != v, trial

        # even-degree base change makes every length even, reducing the
        # local point test to a pure reversal search
        scaled, frobenius = base_change(g, 2, rng.choice((1, 2)))
        assert all(length % 2 == 0 for length in scaled.edge_length.values())
        found, _ = has_local_point(scaled, frobenius)
        assert found == any(frobenius[r] == opposite(r) for r in scaled.edge_endpoints), trial

    assert implication_hits > 0
    _report(8, time.monotonic() - start, 30, f"1000 random graphs; implication exercised {implication_hits}x")


def test_criterion_9_cli_contract(capsys):
    start = time.monotonic()

    assert main(["certify", "5", "17", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == CERTIFY_5_17_JSON
    assert main(["enumerate", "--max", "30"]) == 0
    assert capsys.readouterr().out == ENUMERATE_30_CSV

    graph = parse_graph(GRAPH_OK)
    assert parse_graph(serialize_graph(graph)) == graph

    elapsed = time.monotonic() - start
    _report(9, elapsed, 5, "CLI goldens and graph round-trip")


def test_criterion_10_class_number_at_the_certify_budget():
    start = time.monotonic()
    # 99999989 = 5 mod 24 is the largest prime below certify's budget of 10^8
    assert class_number(-4 * 99_999_989) == 9974
    _report(10, time.monotonic() - start, 1, "h(-4p) = 9974 at p = 99999989, the certify budget")
