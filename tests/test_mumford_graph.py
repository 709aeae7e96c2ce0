from dataclasses import replace
from random import Random

import pytest

from alquot.mumford_graph import (
    INVOLUTION_NAMES,
    GraphParseError,
    ImpossibleCaseError,
    LengthedQuotientGraph,
    LiftCase,
    QuotientError,
    base_change,
    has_local_point,
    lift_case_analysis,
    opposite,
    parse_graph,
    quotient_by_involution,
    quotient_edge_map,
    serialize_graph,
    validate,
)
from graphgen import random_quotient_graph

TWO_EDGE = """v a even
v b odd
e e1 a b 2
inv wp e1 ~e1
inv wq
inv wpq e1 ~e1
"""

TWO_CYCLE_SWAP = """v a even
v b odd
e e1 a b 1
e e2 b a 1
inv wp
inv wq e1 e2
inv wpq e1 e2
"""


def test_opposite():
    assert opposite("e1") == "~e1"
    assert opposite("~e1") == "e1"


def test_parse_and_roundtrip():
    g = parse_graph(TWO_EDGE)
    assert validate(g) == []
    assert g.vertex_parity == {"a": "even", "b": "odd"}
    assert g.edge_endpoints["~e1"] == ("b", "a")
    assert g.edge_length["~e1"] == 2
    text = serialize_graph(g)
    assert parse_graph(text) == g
    assert serialize_graph(parse_graph(text)) == text


def test_parse_accepts_comments_and_blanks():
    g = parse_graph("# a comment\n\n" + TWO_EDGE)
    assert validate(g) == []


@pytest.mark.parametrize(
    "text, line",
    [
        ("v a even\nv b odd\nz boom\n", 3),
        ("v a purple\n", 1),
        ("v a even\nv a odd\n", 2),
        ("v a even\nv b odd\ne e1 a b 0\n", 3),
        ("v a even\nv b odd\ne e1 a c 1\n", 3),
        ("v a even\nv b odd\ne e1 a b 1\ne e1 b a 1\n", 4),
        ("v a even\nv b odd\ne ~e1 a b 1\n", 3),
        ("v a even\nv b odd\ne e1 a b 1\ninv wz e1 e1\n", 4),
        ("v a even\nv b odd\ne e1 a b 1\ninv wp e1\n", 4),
        ("v a even\nv b odd\ne e1 a b 1\ninv wp e1 e9\n", 4),
        ("v a even\nv b odd\ne e1 a b 1\ninv wp\ninv wp\n", 5),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(GraphParseError) as info:
        parse_graph(text)
    assert info.value.line == line


def test_validate_flags_length_mismatch_and_bad_opposites():
    g = parse_graph(TWO_EDGE)
    broken = LengthedQuotientGraph(
        vertex_parity=g.vertex_parity,
        edge_endpoints=g.edge_endpoints,
        edge_length={**g.edge_length, "~e1": 5},
        involutions=g.involutions,
    )
    assert any("differ in length" in v for v in validate(broken))


def test_validate_flags_noncrossing_edge():
    text = TWO_EDGE.replace("v b odd", "v b even")
    g = parse_graph(text)
    assert any("joins two even vertices" in v for v in validate(g))
    unflagged = LengthedQuotientGraph(
        g.vertex_parity, g.edge_endpoints, g.edge_length, g.involutions, bipartite=False
    )
    assert validate(unflagged) == []


def test_validate_flags_wpq_mismatch():
    text = TWO_EDGE.replace("inv wpq e1 ~e1", "inv wpq")
    g = parse_graph(text)
    assert any("wpq differs from wp o wq" in v for v in validate(g))


def test_validate_flags_length_breaking_involution():
    text = """v a even
v b odd
e e1 a b 1
e e2 a b 3
inv wp e1 e2
inv wq
inv wpq e1 e2
"""
    g = parse_graph(text)
    assert any("does not preserve the length" in v for v in validate(g))


def test_validate_flags_endpoint_inconsistency():
    text = """v a even
v b odd
v c odd
e e1 a b 1
e e2 a c 1
inv wp e2 ~e2
inv wq
inv wpq e2 ~e2
"""
    g = parse_graph(text)
    assert any("not an automorphism" in v for v in validate(g))


@pytest.mark.parametrize("lengths", [{"e1": 2}, {"~e1": 2}])
def test_validate_reports_a_missing_length(lengths):
    g = replace(parse_graph(TWO_EDGE), edge_length=lengths)
    missing = next(eid for eid in ("e1", "~e1") if eid not in lengths)
    for checks in (False, True):
        violations = validate(g, dual_graph_checks=checks)
        assert f"edge {missing!r} has nonpositive length" in violations
        assert any("does not preserve the length" in v for v in violations)
    # an edge without a length does not meet the local-point criterion
    assert has_local_point(g, "wp") == (True, opposite(missing))
    with pytest.raises(ValueError, match="has no length"):
        lift_case_analysis(g, missing)


def test_a_missing_involution_image_is_reported_not_raised():
    two_edge = parse_graph(TWO_EDGE)
    wp = {eid: image for eid, image in two_edge.involutions["wp"].items() if eid != "e1"}
    g = replace(two_edge, involutions={**two_edge.involutions, "wp": wp})
    assert "wp is not a permutation of the oriented edges" in validate(g, dual_graph_checks=True)
    assert has_local_point(g, "wp") == (True, "~e1")

    swap = parse_graph(TWO_CYCLE_SWAP)
    wq = {eid: image for eid, image in swap.involutions["wq"].items() if eid != "~e2"}
    g = replace(swap, involutions={**swap.involutions, "wq": wq})
    assert "wq is not a permutation of the oriented edges" in validate(g)
    with pytest.raises(QuotientError, match="wq is not a permutation of the oriented edges"):
        quotient_by_involution(g, "wp")


@pytest.mark.parametrize(
    "missing, call",
    [
        ("wpq", lambda g: has_local_point(g, "wpq")),
        ("wpq", lambda g: quotient_by_involution(g, "wq")),
        ("wpq", serialize_graph),
        ("wpq", lambda g: lift_case_analysis(g, "e1")),
        ("wpq", lambda g: quotient_edge_map(g, "wpq")),
        ("wp", lambda g: base_change(g, 1, 1)),
    ],
    ids=["has_local_point", "quotient", "serialize", "lift_case", "quotient_edge_map", "base_change"],
)
def test_a_missing_involution_raises_a_value_error_naming_it(missing, call):
    two_edge = parse_graph(TWO_EDGE)
    kept = {name: w for name, w in two_edge.involutions.items() if name != missing}
    g = replace(two_edge, involutions=kept)
    assert validate(g) == ["involutions must be exactly wp, wq, wpq"]
    with pytest.raises(ValueError, match=f"graph has no involution '{missing}'"):
        call(g)


@pytest.mark.parametrize("name", INVOLUTION_NAMES)
def test_lift_case_analysis_names_an_involution_without_an_image(name):
    two_edge = parse_graph(TWO_EDGE)
    w = {eid: image for eid, image in two_edge.involutions[name].items() if eid != "e1"}
    g = replace(two_edge, involutions={**two_edge.involutions, name: w})
    assert f"{name} is not a permutation of the oriented edges" in validate(g)
    # not ImpossibleCaseError: the graph is malformed, so no case applies
    with pytest.raises(ValueError, match=f"{name} has no image for edge 'e1'") as info:
        lift_case_analysis(g, "e1")
    assert type(info.value) is ValueError


def test_validate_dual_graph_checks():
    g = parse_graph(TWO_EDGE)
    assert validate(g) == []
    warnings = validate(g, dual_graph_checks=True)
    assert any("even length and is reversed by wp" in v for v in warnings)


def test_quotient_fixed_edge_doubles_length():
    text = """v a even
v b odd
e e1 a b 1
inv wp
inv wq
inv wpq
"""
    q = quotient_by_involution(parse_graph(text), "wq")
    assert q.edge_length == {"e1": 2, "~e1": 2}
    assert validate(q) == []


def test_quotient_free_halves_edges():
    text = """v a even
v b odd
e e1 a b 1
e e2 b a 1
inv wp
inv wq e1 ~e2
inv wpq e1 ~e2
"""
    g = parse_graph(text)
    q = quotient_by_involution(g, "wq")
    assert set(q.edge_endpoints) == {"e1", "~e1"}
    assert q.edge_length["e1"] == 1
    assert validate(q) == []


def test_quotient_of_two_cycle_by_vertex_swap():
    g = parse_graph(TWO_CYCLE_SWAP)
    assert validate(g) == []
    q = quotient_by_involution(g, "wq")
    assert set(q.vertex_parity) == {"a"}
    assert set(q.edge_endpoints) == {"e1", "~e1"}
    assert q.edge_endpoints["e1"] == ("a", "a")
    assert q.bipartite is False
    assert validate(q) == []


def test_quotient_rejects_edge_reversal():
    text = """v a even
v b odd
e e1 a b 1
inv wp
inv wq e1 ~e1
inv wpq e1 ~e1
"""
    with pytest.raises(QuotientError):
        quotient_by_involution(parse_graph(text), "wq")


def test_quotient_rejects_noncommuting_descent():
    text = """v a even
v b odd
e e1 a b 1
e e2 a b 1
e e3 a b 1
inv wp e2 e3
inv wq e1 e2
inv wpq
"""
    with pytest.raises(QuotientError):
        quotient_by_involution(parse_graph(text), "wq")


def test_base_change():
    g = parse_graph(TWO_EDGE)
    same, frob = base_change(g, 1, 1)
    assert same == g
    assert frob == g.involutions["wp"]
    doubled, _ = base_change(g, 2, 1)
    assert doubled.edge_length["e1"] == 4
    _, ident = base_change(g, 1, 2)
    assert ident == {e: e for e in g.edge_endpoints}
    with pytest.raises(ValueError):
        base_change(g, 0, 1)


def test_has_local_point_examples():
    g = parse_graph(TWO_EDGE)
    assert has_local_point(g, "wp") == (True, "e1")
    short = parse_graph(TWO_EDGE.replace("e e1 a b 2", "e e1 a b 1"))
    assert has_local_point(short, "wp") == (False, None)
    fixed = parse_graph(TWO_EDGE.replace("inv wp e1 ~e1", "inv wp"))
    assert has_local_point(fixed, "wp") == (False, None)


def test_lift_case_analysis():
    even_wpq = parse_graph(
        """v a even
v b odd
e e1 a b 2
inv wp
inv wq e1 ~e1
inv wpq e1 ~e1
"""
    )
    assert lift_case_analysis(even_wpq, "e1") is LiftCase.EVEN_LENGTH_WPQ_REVERSED

    wq_fixed = parse_graph(
        """v a even
v b odd
e e1 a b 1
inv wp e1 ~e1
inv wq
inv wpq e1 ~e1
"""
    )
    assert lift_case_analysis(wq_fixed, "e1") is LiftCase.WQ_FIXED_WP_REVERSED

    excluded = parse_graph(TWO_EDGE)
    with pytest.raises(ImpossibleCaseError):
        lift_case_analysis(excluded, "e1")

    no_precondition = parse_graph(
        """v a even
v b odd
e e1 a b 1
inv wp e1 ~e1
inv wq e1 ~e1
inv wpq
"""
    )
    with pytest.raises(ValueError):
        lift_case_analysis(no_precondition, "e1")


def test_lift_case_wq_fixed_wpq_reversed_implies_wp_reversed():
    # on a valid graph wp = wpq o wq, so the implication is automatic
    g = parse_graph(
        """v a even
v b odd
e e1 a b 1
inv wp e1 ~e1
inv wq
inv wpq e1 ~e1
"""
    )
    assert g.involutions["wq"]["e1"] == "e1"
    assert g.involutions["wpq"]["e1"] == "~e1"
    assert g.involutions["wp"]["e1"] == "~e1"
    assert lift_case_analysis(g, "e1") is LiftCase.WQ_FIXED_WP_REVERSED


def test_random_graphs_validate_and_roundtrip():
    rng = Random(20240917)
    for _ in range(60):
        g = random_quotient_graph(rng)
        assert validate(g) == []
        assert parse_graph(serialize_graph(g)) == g


def test_random_quotients_match_direct_orbit_scan():
    rng = Random(5)
    for _ in range(120):
        g = random_quotient_graph(rng, avoid_wq_edge_reversal=True)
        wq, wp = g.involutions["wq"], g.involutions["wp"]
        q = quotient_by_involution(g, "wq")
        got, _ = has_local_point(q, "wp")
        expected = any(
            (g.edge_length[s] * (2 if wq[s] == s else 1)) % 2 == 0
            and wp[s] in (opposite(s), wq[opposite(s)])
            for s in g.edge_endpoints
        )
        assert got == expected
