import hashlib
import os
import subprocess
import sys
from pathlib import Path
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

TRIANGLE = """v a even
v b odd
v c odd
e e1 a b 1
e e2 b c 1
e e3 c a 1
inv wp
inv wq
inv wpq
"""


def _with(g, **changes):
    """A copy of the graph g with the named fields changed, built by the
    constructor, as for every value class."""
    return LengthedQuotientGraph(**{name: getattr(g, name) for name in g._fields} | changes)


def _with_three_cycle(g):
    """g with wp replaced by the edge cycle e1 -> e2 -> e3 -> e1, which the
    file format cannot state."""
    cycle = {}
    for src, dst in (("e1", "e2"), ("e2", "e3"), ("e3", "e1")):
        cycle[src], cycle[opposite(src)] = dst, opposite(dst)
    return _with(g, involutions={**g.involutions, "wp": cycle})


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
    # comments, indented or not, empty lines and lines of spaces and tabs,
    # tab-separated tokens, trailing blanks and CRLF line ends all read as
    # TWO_EDGE does
    text = (
        "# a comment\n"
        "\n"
        " \t# an indented comment\n"
        " \t \n"
        "v\ta\teven  \n"
        "v b odd\t\n"
        "e e1\ta b 2\n"
        "inv wp e1 ~e1\ninv wq\ninv wpq e1 ~e1\n"
    )
    assert parse_graph(text.replace("\n", "\r\n")) == parse_graph(text) == parse_graph(TWO_EDGE)


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("v a even\nv b odd\nz boom\n", 3, "unknown record 'z'"),
        ("v a purple\n", 1, "parity must be even or odd, got 'purple'"),
        ("v a even\nv a odd\n", 2, "duplicate vertex 'a'"),
        ("v a even\nv b odd\ne e1 a b 0\n", 3, "length must be a positive integer"),
        ("v a even\nv b odd\ne e1 a c 1\n", 3, "edge endpoints must be declared first"),
        ("v a even\nv b odd\ne e1 a b 1\ne e1 b a 1\n", 4, "duplicate edge 'e1'"),
        ("v a even\nv b odd\ne ~e1 a b 1\n", 3, "edge ids must not start with ~"),
        (
            "v a even\nv b odd\ne e1 a b 1\ninv wz e1 e1\n",
            4,
            "involution line needs: inv <wp|wq|wpq> [pairs]",
        ),
        ("v a even\nv b odd\ne e1 a b 1\ninv wp e1\n", 4, "involution pairs come in twos"),
        ("v a even\nv b odd\ne e1 a b 1\ninv wp e1 e9\n", 4, "involution wp mentions unknown edge 'e9'"),
        ("v a even\nv b odd\ne e1 a b 1\ninv wp\ninv wp\n", 5, "involution wp declared twice"),
        ("v a\n", 1, "vertex line needs: v <id> <even|odd>"),
        # a comment is a whole line, so a # after a record is more tokens
        ("v a even # x\n", 1, "vertex line needs: v <id> <even|odd>"),
        ("v a even\nv b odd\ne e1 a b\n", 3, "edge line needs: e <id> <from> <to> <length>"),
        ("v a even\nv b odd\ne e1 a b two\n", 3, "bad length 'two'"),
        # int() reads these two as 10 and 3, which serialize_graph would
        # write back as other text: an underscore, an Arabic-Indic digit
        ("v a even\nv b odd\ne e1 a b 1_0\n", 3, "bad length '1_0'"),
        ("v a even\nv b odd\ne e1 a b \u0663\n", 3, "bad length '\u0663'"),
        ("v a even\nv b odd\ne e1 a b -1\n", 3, "length must be a positive integer"),
        ("v a even\nv b odd\ne e1 a b 1\ninv wp e1 e1 e1 ~e1\n", 4, "involution wp maps 'e1' inconsistently"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, message):
    with pytest.raises(GraphParseError) as info:
        parse_graph(text)
    assert info.value.line == line
    assert str(info.value) == f"line {line}: {message}"


@pytest.mark.parametrize(
    "pair, unknown", [("e1 zz", "zz"), ("zz e1", "zz"), ("~e1 zz", "zz"), ("e1 ~zz", "~zz")]
)
def test_an_unknown_edge_in_an_involution_is_the_one_named(pair, unknown):
    with pytest.raises(GraphParseError) as info:
        parse_graph(f"v a even\nv b odd\ne e1 a b 1\ninv wp {pair}\n")
    assert str(info.value) == f"line 4: involution wp mentions unknown edge {unknown!r}"


def test_validate_flags_length_mismatch_and_bad_opposites():
    g = parse_graph(TWO_EDGE)
    broken = LengthedQuotientGraph(
        vertex_parity=g.vertex_parity,
        edge_endpoints=g.edge_endpoints,
        edge_length={**g.edge_length, "~e1": 5},
        involutions=g.involutions,
    )
    assert any("differ in length" in v for v in validate(broken))


def test_validate_flags_a_bad_parity_an_unreversed_opposite_and_a_non_involution():
    two_edge = parse_graph(TWO_EDGE)
    unreversed = _with(two_edge, edge_endpoints={**two_edge.edge_endpoints, "~e1": ("a", "b")})
    assert "opposite of 'e1' does not reverse its endpoints" in validate(unreversed)
    g = parse_graph(TRIANGLE)
    purple = _with(g, vertex_parity={**g.vertex_parity, "c": "purple"})
    assert "vertex 'c' has parity 'purple'" in validate(purple)
    assert "wp is not an involution at 'e1'" in validate(_with_three_cycle(g))


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
    g = _with(parse_graph(TWO_EDGE), edge_length=lengths)
    missing = next(eid for eid in ("e1", "~e1") if eid not in lengths)
    violations = validate(g)
    assert f"edge {missing!r} has nonpositive length" in violations
    assert any("does not preserve the length" in v for v in violations)
    # an edge without a length does not meet the local-point criterion
    assert has_local_point(g, "wp") == (True, opposite(missing))
    with pytest.raises(ValueError, match="has no length"):
        lift_case_analysis(g, missing)
    with pytest.raises(ValueError, match=f"edge {missing!r} has no length"):
        quotient_by_involution(g, "wq")
    if missing == "e1":  # serialization reads the plain orientation's length
        with pytest.raises(ValueError, match="edge 'e1' has no length"):
            serialize_graph(g)


def test_a_missing_involution_image_is_reported_not_raised():
    two_edge = parse_graph(TWO_EDGE)
    wp = {eid: image for eid, image in two_edge.involutions["wp"].items() if eid != "e1"}
    g = _with(two_edge, involutions={**two_edge.involutions, "wp": wp})
    assert "wp is not a permutation of the oriented edges" in validate(g)
    assert has_local_point(g, "wp") == (True, "~e1")

    swap = parse_graph(TWO_CYCLE_SWAP)
    wq = {eid: image for eid, image in swap.involutions["wq"].items() if eid != "~e2"}
    g = _with(swap, involutions={**swap.involutions, "wq": wq})
    assert "wq is not a permutation of the oriented edges" in validate(g)
    with pytest.raises(QuotientError, match="wq is not a permutation of the oriented edges"):
        quotient_by_involution(g, "wp")

    # wq sends ~e1 to an edge the graph no longer has
    endpoints = {eid: ends for eid, ends in swap.edge_endpoints.items() if eid != "~e2"}
    with pytest.raises(QuotientError, match="wq is not a permutation of the oriented edges"):
        quotient_by_involution(_with(swap, edge_endpoints=endpoints), "wp")


def test_a_one_sided_edge_or_an_undeclared_vertex_is_reported_not_raised():
    identity = {name: {"e1": "e1"} for name in INVOLUTION_NAMES}
    one_sided = LengthedQuotientGraph({"a": "even", "b": "odd"}, {"e1": ("a", "b")}, {"e1": 2}, identity)
    assert "edge 'e1' has no opposite" in validate(one_sided)

    undeclared = _with(parse_graph(TWO_EDGE), vertex_parity={"a": "even"})
    assert "edge 'e1' touches an undeclared vertex" in validate(undeclared)
    with pytest.raises(QuotientError, match="an edge touches an undeclared vertex"):
        quotient_by_involution(undeclared, "wq")


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
    g = _with(two_edge, involutions=kept)
    assert validate(g) == ["involutions must be exactly wp, wq, wpq"]
    with pytest.raises(ValueError, match=f"graph has no involution '{missing}'"):
        call(g)


def _without_image_of_e1(name):
    two_edge = parse_graph(TWO_EDGE)
    w = {eid: image for eid, image in two_edge.involutions[name].items() if eid != "e1"}
    return _with(two_edge, involutions={**two_edge.involutions, name: w})


@pytest.mark.parametrize("name", INVOLUTION_NAMES)
def test_lift_case_analysis_names_an_involution_without_an_image(name):
    g = _without_image_of_e1(name)
    assert f"{name} is not a permutation of the oriented edges" in validate(g)
    # not ImpossibleCaseError: the graph is malformed, so no case applies
    with pytest.raises(ValueError, match=f"{name} has no image for edge 'e1'") as info:
        lift_case_analysis(g, "e1")
    assert type(info.value) is ValueError


@pytest.mark.parametrize("name", INVOLUTION_NAMES)
def test_serialize_graph_names_an_involution_without_an_image(name):
    with pytest.raises(ValueError, match=f"^{name} has no image for edge 'e1'$"):
        serialize_graph(_without_image_of_e1(name))


@pytest.mark.parametrize("name", INVOLUTION_NAMES)
def test_quotient_edge_map_names_an_involution_without_an_image(name):
    with pytest.raises(ValueError, match=f"^{name} has no image for edge 'e1'$"):
        quotient_edge_map(_without_image_of_e1(name), name)


def _corruptions(g, rng):
    """Six hand-built faults, each at a random oriented edge or involution."""
    eid, name = rng.choice(g.oriented_edges()), rng.choice(INVOLUTION_NAMES)
    w = g.involutions[name]
    return [
        _with(g, involutions={**g.involutions, name: {e: t for e, t in w.items() if e != eid}}),
        _with(g, involutions={**g.involutions, name: {**w, eid: "nowhere"}}),
        _with(g, edge_length={e: n for e, n in g.edge_length.items() if e != eid}),
        _with(g, edge_length={**g.edge_length, eid: 0}),
        _with(g, involutions={n: u for n, u in g.involutions.items() if n != name}),
        _with(g, edge_endpoints={e: ends for e, ends in g.edge_endpoints.items() if e != eid}),
    ]


def test_operations_on_a_corrupted_graph_raise_only_value_errors():
    operations = [serialize_graph, lambda g: base_change(g, 2, 1), lambda g: base_change(g, 1, 2)]
    for name in INVOLUTION_NAMES:
        operations += [
            lambda g, name=name: quotient_by_involution(g, name),
            lambda g, name=name: quotient_edge_map(g, name),
            lambda g, name=name: has_local_point(g, name),
        ]
    rng = Random(15)
    for _ in range(200):
        for g in _corruptions(random_quotient_graph(rng), rng):
            assert validate(g)
            for call in operations + [lambda g, s=s: lift_case_analysis(g, s) for s in g.edge_endpoints]:
                try:
                    call(g)
                except ValueError:  # QuotientError and ImpossibleCaseError included
                    pass


def test_the_even_wp_reversed_exclusion_is_left_to_the_local_point_layer():
    # validation holds the structural invariants only; an even-length edge
    # that wp reverses is the local-point criterion's witness, and
    # lift_case_analysis is where that case is excluded
    g = parse_graph(TWO_EDGE)
    assert validate(g) == []
    assert has_local_point(g, "wp") == (True, "e1")
    with pytest.raises(ImpossibleCaseError, match="even length and is reversed by wp"):
        lift_case_analysis(g, "e1")


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
    with pytest.raises(QuotientError, match="^wq reverses edge 'e1'; quotient length undefined$"):
        quotient_by_involution(parse_graph(text), "wq")


def test_quotient_finds_a_reversal_by_id_not_by_endpoints():
    # ~e1 keeps e1's endpoints, so wq reversing e1 fixes both vertices: only
    # the ids show that wq sends e1 to its opposite
    text = """v a even
v b odd
e e1 a b 1
inv wp
inv wq e1 ~e1
inv wpq e1 ~e1
"""
    g = parse_graph(text)
    g = _with(g, edge_endpoints={**g.edge_endpoints, "~e1": ("a", "b")})
    with pytest.raises(QuotientError, match="^wq reverses edge 'e1'; quotient length undefined$"):
        quotient_by_involution(g, "wq")


def test_quotient_names_the_first_reversed_edge_in_edge_order():
    # a hand-built graph may list ~e1 before e1; wp reverses both, and the
    # first in edge order is named
    g = parse_graph(TWO_EDGE)
    g = _with(g, edge_endpoints=dict(reversed(g.edge_endpoints.items())))
    with pytest.raises(QuotientError, match="^wp reverses edge '~e1'; quotient length undefined$"):
        quotient_by_involution(g, "wp")


def test_quotient_reports_a_broken_vertex_action_before_an_earlier_reversal():
    # wq reverses e1, so a <-> b, and then fixes the parallel edge e2,
    # so a -> a: the vertex action fails at a later edge than the reversal
    text = """v a even
v b odd
e e1 a b 1
e e2 a b 1
inv wp
inv wq e1 ~e1
inv wpq e1 ~e1
"""
    with pytest.raises(QuotientError, match="^wq is not an automorphism: vertex 'a' has conflicting images$"):
        quotient_by_involution(parse_graph(text), "wq")


def test_quotient_rejects_an_orbit_with_inconsistent_endpoints():
    # wp cycles the triangle's edges: an automorphism, but no involution
    with pytest.raises(QuotientError, match="orbit of 'e3' has inconsistent endpoints"):
        quotient_by_involution(_with_three_cycle(parse_graph(TRIANGLE)), "wp")


def test_an_unknown_involution_name_raises():
    with pytest.raises(ValueError, match="unknown involution 'wz'"):
        parse_graph(TWO_EDGE).involution("wz")


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
    with pytest.raises(QuotientError, match="^wp does not commute with wq; descent undefined$"):
        quotient_by_involution(parse_graph(text), "wq")


def test_descent_reports_a_noncommuting_edge_after_one_sent_off_the_graph():
    # wp sends e1 to "x", which is no edge but a key of wq; the check passes
    # at e1 (wp(wq(e1)) = e2 = wq(x)) and fails at e2, and that failure is
    # the one reported
    swap = parse_graph(TWO_CYCLE_SWAP)
    wp, wq = swap.involutions["wp"], swap.involutions["wq"]
    g = _with(swap, involutions={**swap.involutions, "wp": {**wp, "e1": "x"}, "wq": {**wq, "x": "e2"}})
    with pytest.raises(QuotientError, match="^wp does not commute with wq; descent undefined$"):
        quotient_by_involution(g, "wq")
    # when every edge commutes, the edge sent off the graph is reported
    wp, wq = {**wp, "e1": "x", "e2": "z"}, {**wq, "x": "z", "z": "x"}
    g = _with(swap, involutions={**swap.involutions, "wp": wp, "wq": wq})
    with pytest.raises(QuotientError, match="^wp is not a permutation of the oriented edges$"):
        quotient_by_involution(g, "wq")


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


@pytest.mark.parametrize("e, f", [(1.5, 1), (2, 1.0)])
def test_base_change_refuses_factors_that_are_not_integers(e, f):
    # a length of 3.0 would serialize to a file parse_graph rejects, and
    # f = 1.0 would pick wp for an odd degree it is not
    with pytest.raises(ValueError, match="^e and f must be positive integers$"):
        base_change(parse_graph(TWO_EDGE), e, f)


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
    with pytest.raises(ValueError, match=r"condition \(1\)"):
        lift_case_analysis(no_precondition, "e1")

    # even, and fixed by every involution
    neither_reversed = parse_graph(TWO_EDGE.replace("inv wp e1 ~e1", "inv wp").replace("inv wpq e1 ~e1", "inv wpq"))
    with pytest.raises(ValueError, match=r"condition \(2\)"):
        lift_case_analysis(neither_reversed, "e1")

    # even and wp-reversed, with wpq = wp o wq fixing it: excluded, not a
    # failed precondition
    wq_reversed = parse_graph(TWO_EDGE.replace("inv wq", "inv wq e1 ~e1").replace("inv wpq e1 ~e1", "inv wpq"))
    assert validate(wq_reversed) == []
    with pytest.raises(ImpossibleCaseError):
        lift_case_analysis(wq_reversed, "e1")


def test_lift_case_analysis_rejects_an_unknown_edge_and_inconsistent_involutions():
    with pytest.raises(ValueError, match="unknown edge 'e9'"):
        lift_case_analysis(parse_graph(TWO_EDGE), "e9")
    # wq-fixed and wpq-reversed but wp-fixed: wpq is not wp o wq
    inconsistent = parse_graph(TWO_EDGE.replace("inv wp e1 ~e1", "inv wp"))
    with pytest.raises(ValueError, match="inconsistent involutions"):
        lift_case_analysis(inconsistent, "e1")


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


# the sha256 of the reprs of every defined quotient of 40 generated graphs
QUOTIENT_REPRS = """
import hashlib, random
from alquot.mumford_graph import INVOLUTION_NAMES, QuotientError, quotient_by_involution
from graphgen import random_quotient_graph
rng, reprs = random.Random(7), []
for _ in range(40):
    g = random_quotient_graph(rng)
    for name in INVOLUTION_NAMES:
        try:
            reprs.append(repr(quotient_by_involution(g, name)))
        except QuotientError:
            pass
print(len(reprs), hashlib.sha256("\\n".join(reprs).encode()).hexdigest())
"""


def test_quotient_repr_does_not_depend_on_the_hash_seed():
    # the quotient's vertex dict keeps its first-seen order, so no string
    # hash order reaches the repr; each seed needs a fresh interpreter
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    digests = [
        subprocess.run(
            [sys.executable, "-c", QUOTIENT_REPRS],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("0", "1")
    ]
    assert digests[0] == digests[1]


def _single_faults(g, rng):
    """Six copies of g, each with one fault at a random oriented edge."""
    edges = g.oriented_edges()
    eid, other = rng.choice(edges), rng.choice(edges)
    opp, name = opposite(eid), rng.choice(INVOLUTION_NAMES)
    w, wp, wq = g.involutions[name], g.involutions["wp"], g.involutions["wq"]
    src, dst = g.edge_endpoints[eid]
    # conjugating wq by the swap of eid and other keeps an involution but
    # not, in general, one that commutes with wp
    swap = {eid: other, other: eid, opp: opposite(other), opposite(other): opp}
    conjugate = {swap.get(e, e): swap.get(t, t) for e, t in wq.items()}
    return [
        _with(g, involutions={**g.involutions, name: {e: t for e, t in w.items() if e != eid}}),
        _with(g, edge_endpoints={**g.edge_endpoints, opp: (src, dst)}),
        _with(g, edge_length={**g.edge_length, opp: g.edge_length[opp] + 1}),
        # still a permutation, but eid's source has two images unless w
        # moves eid and other alike
        _with(g, involutions={**g.involutions, name: {**w, eid: w[other], other: w[eid]}}),
        _with(g, involutions={**g.involutions, "wq": conjugate}),
        _with(
            g,
            edge_length={**g.edge_length, eid: 2, opp: 2},
            involutions={**g.involutions, "wp": {**wp, eid: opp, opp: eid}},
        ),
    ]


def _outcome(call):
    try:
        return call()
    except ValueError as exc:  # GraphParseError and QuotientError included
        return type(exc).__name__, str(exc)


def _quotient_text(g, name):
    q = quotient_by_involution(g, name)
    return q.bipartite, serialize_graph(q)


def _observed(g):
    """Everything the public operations report on g, in a fixed order."""
    seen = [validate(g)]
    for name in INVOLUTION_NAMES:
        seen.append(_outcome(lambda: list(quotient_edge_map(g, name).items())))
        seen.append(_outcome(lambda: _quotient_text(g, name)))
        seen.append(_outcome(lambda: has_local_point(g, name)))
    text = _outcome(lambda: serialize_graph(g))
    seen.append(text)
    if isinstance(text, str):
        seen.append(_outcome(lambda: serialize_graph(parse_graph(text))))
    return seen


# sha256 of the observations below, recorded before mumford_graph's
# per-edge loops were rewritten for speed; any change in a violation
# list, its order, an exception message or a serialized quotient moves it
OBSERVED_SHA256 = "2c52f3d8e2b4218812fed86bec29d30d2e3887a692edd1fbe7de116a54c547cb"


def test_generated_graphs_and_their_single_faults_are_observed_unchanged():
    rng = Random(20)
    observed = []
    for _ in range(48):
        flips = rng.choice([(), ("wp",), ("wq",), ("wp", "wq")])
        g = random_quotient_graph(rng, max_extra_seed_vertices=4, max_extra_seed_edges=8, parity_flips=flips)
        for h in [g, *_single_faults(g, rng)]:
            observed.append(_observed(h))
    assert hashlib.sha256(repr(observed).encode()).hexdigest() == OBSERVED_SHA256


def _digest_graphs():
    """The graphs the digest above observes, from the same seed and draws:
    each generated graph, then its single faults."""
    rng = Random(20)
    for _ in range(48):
        flips = rng.choice([(), ("wp",), ("wq",), ("wp", "wq")])
        g = random_quotient_graph(rng, max_extra_seed_vertices=4, max_extra_seed_edges=8, parity_flips=flips)
        yield g
        yield from _single_faults(g, rng)


def test_quotient_edge_map_and_serialization_name_orbits_as_the_quotient_does():
    quotients = listings = 0
    for g in _digest_graphs():
        serialized = _outcome(lambda: serialize_graph(g))
        listed = {}
        if isinstance(serialized, str):
            for line in serialized.splitlines():
                if line.startswith("inv "):
                    tokens = line.split()
                    listed[tokens[1]] = set(tokens[2::2])
        for name in INVOLUTION_NAMES:
            orbit = _outcome(lambda: quotient_edge_map(g, name))
            if not isinstance(orbit, dict):
                continue
            q = _outcome(lambda: quotient_by_involution(g, name))
            if isinstance(q, LengthedQuotientGraph):
                assert set(q.edge_endpoints) == set(orbit.values())
                quotients += 1
            if name in listed:
                w = g.involutions[name]
                assert listed[name] == {e for e in g.base_edges() if w[e] != e and orbit[e] == e}
                listings += 1
    # 153 quotients exist among the 1008 tries (most involutions reverse
    # an edge), and 912 involutions serialize
    assert (quotients, listings) == (153, 912)
