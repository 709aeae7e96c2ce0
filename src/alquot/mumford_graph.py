"""Lengthed quotient graphs with involutions: the combinatorial layer of
p-adic uniformization.

The special fiber of a Mumford curve is encoded by its dual graph: a
finite graph whose oriented edges come in opposite pairs r, ~r carrying a
positive length (the thickness of the singularity), with distinguished
involutions wp, wq, wpq acting as automorphisms and satisfying
wpq = wp o wq.  Vertices carry an even/odd class; on a dual graph every
edge joins the two classes.

This module does not compute such graphs from arithmetic data -- they are
supplied, via a small line-oriented text format -- but it evaluates the
combinatorics on them: validation of all structural invariants, quotient
by an involution (with the stabilizer-doubling length rule), base change,
the even-length reversed-edge criterion for local points, and the
two-case reduction used when lifting an edge of a quotient graph.  These
three share one predicate for the criterion, ``_reversed_with_even_length``;
the quotient, its edge map and serialization share one orbit-naming rule,
``_orbit_id``.

File format, one record per line, UTF-8::

    v <id> <even|odd>            vertex and its class
    e <id> <from> <to> <length>  oriented edge pair: declares <id> and its
                                 opposite ~<id> (endpoints reversed, same
                                 length)
    inv <wp|wq|wpq> [<a> <b>]... involution as id -> id pairs; edges not
                                 mentioned are fixed; ~ selects opposites

Tokens are separated by any whitespace.  Blank lines and comments, whole
lines whose first non-blank character is ``#``, are ignored; anything else
(a ``#`` after a record too) is a parse error carrying its line number.
Serialization is canonical and round-trips.  A hand-built graph lacking an
image, a length, an involution, an edge or a vertex is reported by
``validate`` as values; the other operations raise ValueError or a
subclass where they need it, never KeyError.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Mapping

from .ntheory import _Value

__all__ = [
    "LengthedQuotientGraph",
    "GraphParseError",
    "QuotientError",
    "ImpossibleCaseError",
    "LiftCase",
    "INVOLUTION_NAMES",
    "opposite",
    "parse_graph",
    "serialize_graph",
    "validate",
    "quotient_by_involution",
    "quotient_edge_map",
    "base_change",
    "has_local_point",
    "lift_case_analysis",
]

INVOLUTION_NAMES = ("wp", "wq", "wpq")


class GraphParseError(ValueError):
    """Malformed graph file; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class QuotientError(ValueError):
    """Quotient undefined: an edge is reversed, or descent fails."""


class ImpossibleCaseError(ValueError):
    """Case combination excluded on quaternionic dual graphs."""


class LiftCase(Enum):
    EVEN_LENGTH_WPQ_REVERSED = "even-length-wpq-reversed"
    WQ_FIXED_WP_REVERSED = "wq-fixed-wp-reversed"


def opposite(edge_id: str) -> str:
    """The oppositely oriented edge: e1 <-> ~e1."""
    return edge_id[1:] if edge_id[:1] == "~" else "~" + edge_id


class LengthedQuotientGraph(_Value):
    """Parity-classed graph with lengthed opposite edge pairs and the
    three named involutions.

    ``edge_endpoints`` and ``edge_length`` are keyed by every oriented
    edge (both e and ~e); each involution is a total map on oriented
    edges.  The ``bipartite`` flag declares that every edge joins the two
    parity classes; parsed graphs always declare it, while a quotient by
    a class-exchanging involution clears it.  Fields cannot be reassigned,
    and the dicts are treated as immutable: ``base_change`` shares them.
    Unlike the other value classes, the constructor checks nothing:
    ``validate`` reports any invariant violations as values.  The dict
    fields make a graph unhashable.
    """

    __slots__ = _fields = ("vertex_parity", "edge_endpoints", "edge_length", "involutions", "bipartite")

    def __init__(
        self,
        vertex_parity: dict[str, str],
        edge_endpoints: dict[str, tuple[str, str]],
        edge_length: dict[str, int],
        involutions: dict[str, dict[str, str]],
        bipartite: bool = True,
    ) -> None:
        object.__setattr__(self, "vertex_parity", vertex_parity)
        object.__setattr__(self, "edge_endpoints", edge_endpoints)
        object.__setattr__(self, "edge_length", edge_length)
        object.__setattr__(self, "involutions", involutions)
        object.__setattr__(self, "bipartite", bipartite)

    def base_edges(self) -> list[str]:
        return sorted(e for e in self.edge_endpoints if e[:1] != "~")

    def oriented_edges(self) -> list[str]:
        return sorted(self.edge_endpoints)

    def involution(self, name: str) -> dict[str, str]:
        """The named involution; ValueError if the name is unknown or the graph lacks it."""
        if name not in INVOLUTION_NAMES:
            raise ValueError(f"unknown involution {name!r}")
        if name not in self.involutions:
            raise ValueError(f"graph has no involution {name!r}")
        return self.involutions[name]


def _expand_involution(
    opposites: Mapping[str, str], name: str, pairs: list[tuple[str, str]]
) -> dict[str, str]:
    """The edges an involution's generator pairs move, with their images,
    over the oriented ids that ``opposites`` maps each to its opposite.

    Each a -> b forces b -> a and the opposites ~a -> ~b, ~b -> ~a; the
    edges left out stay fixed.  One lookup each proves a and b known and
    gives their opposites, and the assignments map ~x to ~y whenever x to
    y, so only a and b can clash.  Contradictions raise ValueError.
    """
    assigned: dict[str, str] = {}
    for a, b in pairs:
        opp_a, opp_b = opposites.get(a), opposites.get(b)
        if opp_a is None or opp_b is None:
            raise ValueError(f"involution {name} mentions unknown edge {a if opp_a is None else b!r}")
        if assigned.setdefault(a, b) != b or assigned.setdefault(b, a) != a:
            clash = a if assigned[a] != b else b
            raise ValueError(f"involution {name} maps {clash!r} inconsistently")
        assigned[opp_a], assigned[opp_b] = opp_b, opp_a
    return assigned


def parse_graph(text: str) -> LengthedQuotientGraph:
    """Parse the line-oriented format; raises GraphParseError with the
    offending line number."""
    vertices: dict[str, str] = {}
    endpoints: dict[str, tuple[str, str]] = {}
    lengths: dict[str, int] = {}
    opposites: dict[str, str] = {}
    inv_lines: list[tuple[int, str, list[str]]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "v":
            if len(tokens) != 3:
                raise GraphParseError(lineno, "vertex line needs: v <id> <even|odd>")
            _, vid, parity = tokens
            if parity not in ("even", "odd"):
                raise GraphParseError(lineno, f"parity must be even or odd, got {parity!r}")
            if vid in vertices:
                raise GraphParseError(lineno, f"duplicate vertex {vid!r}")
            vertices[vid] = parity
        elif kind == "e":
            if len(tokens) != 5:
                raise GraphParseError(lineno, "edge line needs: e <id> <from> <to> <length>")
            _, eid, src, dst, raw_len = tokens
            if eid[:1] == "~":
                raise GraphParseError(lineno, "edge ids must not start with ~")
            if eid in endpoints:
                raise GraphParseError(lineno, f"duplicate edge {eid!r}")
            if src not in vertices or dst not in vertices:
                raise GraphParseError(lineno, "edge endpoints must be declared first")
            try:
                # int() also reads "1_0" and non-ASCII digits, which
                # serialize_graph would write back as other text
                if "_" in raw_len or not raw_len.isascii():
                    raise ValueError
                length = int(raw_len)
            except ValueError:
                raise GraphParseError(lineno, f"bad length {raw_len!r}") from None
            if length < 1:
                raise GraphParseError(lineno, "length must be a positive integer")
            opp = "~" + eid  # eid itself does not start with ~
            endpoints[eid], endpoints[opp] = (src, dst), (dst, src)
            lengths[eid] = lengths[opp] = length
            opposites[eid], opposites[opp] = opp, eid
        elif kind == "inv":
            if len(tokens) < 2 or tokens[1] not in INVOLUTION_NAMES:
                raise GraphParseError(lineno, "involution line needs: inv <wp|wq|wpq> [pairs]")
            if len(tokens) % 2:
                raise GraphParseError(lineno, "involution pairs come in twos")
            inv_lines.append((lineno, tokens[1], tokens[2:]))
        elif not kind.startswith("#"):  # a comment is a whole line
            raise GraphParseError(lineno, f"unknown record {kind!r}")

    identity = dict(zip(endpoints, endpoints))
    declared: dict[str, dict[str, str]] = {}
    for lineno, name, flat in inv_lines:
        if name in declared:
            raise GraphParseError(lineno, f"involution {name} declared twice")
        try:
            moved = _expand_involution(opposites, name, list(zip(flat[0::2], flat[1::2])))
        except ValueError as exc:
            raise GraphParseError(lineno, str(exc)) from exc
        declared[name] = identity | moved
    # an involution the file leaves out is the identity
    involutions = {n: declared.get(n) or identity.copy() for n in INVOLUTION_NAMES}
    return LengthedQuotientGraph(vertices, endpoints, lengths, involutions)


def serialize_graph(graph: LengthedQuotientGraph) -> str:
    """Canonical text form; ``parse_graph`` inverts it exactly.

    The format has no record for the bipartite flag (parsed graphs always
    declare it), so only flagged graphs round-trip to equal values.
    """
    lines = [f"v {vid} {graph.vertex_parity[vid]}" for vid in sorted(graph.vertex_parity)]
    base_edges = graph.base_edges()
    for eid in base_edges:
        src, dst = graph.edge_endpoints[eid]
        lines.append(f"e {eid} {src} {dst} {_length(graph, eid)}")
    for name in INVOLUTION_NAMES:
        w = graph.involution(name)
        parts = [f"inv {name}"]
        for eid in base_edges:
            target = _image(name, w, eid)
            # a moved edge is listed by the edge that names its orbit
            if target != eid and _orbit_id(eid, target) == eid:
                parts.extend([eid, target])
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def _reversed_with_even_length(
    graph: LengthedQuotientGraph, w: Mapping[str, str], eids: Iterable[str]
) -> list[str]:
    """The oriented edges among eids that w sends to their opposite and
    that have even length.  An edge with no length or no image under w
    does not meet the criterion."""
    lengths = graph.edge_length
    return [eid for eid in eids if lengths.get(eid, 1) % 2 == 0 and w.get(eid) == opposite(eid)]


def validate(graph: LengthedQuotientGraph, dual_graph_checks: bool = False) -> list[str]:
    """All invariant violations, as strings; empty means valid.

    The vertex action each involution forces is derived in the loop that
    checks the involution edge by edge; the first vertex given two images
    is reported.  With ``dual_graph_checks`` the list also flags any edge
    of even length reversed by wp, a combination that cannot occur on the
    dual graph of a quaternionic Mumford curve with two odd ramified
    primes.
    """
    out: list[str] = []
    edges, lengths, classes = graph.edge_endpoints, graph.edge_length, graph.vertex_parity
    edge_set = set(edges)
    opposites: dict[str, str] = {}
    rows: list[tuple[str, str, str, str, int | None]] = []  # what the involution checks read per edge

    for vid, parity in classes.items():
        if parity not in ("even", "odd"):
            out.append(f"vertex {vid!r} has parity {parity!r}")

    for eid, (src, dst) in edges.items():
        plain = eid[:1] != "~"
        opp = opposites[eid] = "~" + eid if plain else eid[1:]  # opposite(eid), without the call
        rows.append((eid, opp, src, dst, lengths.get(eid)))
        if opp not in edges:
            out.append(f"edge {eid!r} has no opposite")
            continue
        if edges[opp] != (dst, src):
            out.append(f"opposite of {eid!r} does not reverse its endpoints")
        if lengths.get(eid) != lengths.get(opp):
            out.append(f"edge {eid!r} and its opposite differ in length")
        if lengths.get(eid, 0) < 1:
            out.append(f"edge {eid!r} has nonpositive length")
        if src not in classes or dst not in classes:
            out.append(f"edge {eid!r} touches an undeclared vertex")
        elif graph.bipartite and plain and classes[src] == classes[dst]:
            out.append(f"edge {eid!r} joins two {classes[src]} vertices")

    if set(graph.involutions) != set(INVOLUTION_NAMES):
        out.append("involutions must be exactly wp, wq, wpq")
        return out

    for name in INVOLUTION_NAMES:
        w = graph.involution(name)
        if w.keys() != edge_set or set(w.values()) != edge_set:
            out.append(f"{name} is not a permutation of the oriented edges")
            continue
        vmap: dict[str, str] = {}
        conflict = None
        for eid, opp, src, dst, length in rows:
            target = w[eid]  # an edge, so opposites has its opposite
            if w[target] != eid:
                out.append(f"{name} is not an involution at {eid!r}")
            if w.get(opp) != opposites[target]:
                out.append(f"{name} does not commute with opposition at {eid!r}")
            if lengths.get(target) != length:
                out.append(f"{name} does not preserve the length of {eid!r}")
            if conflict is None:
                tsrc, tdst = edges[target]
                if vmap.setdefault(src, tsrc) != tsrc or vmap.setdefault(dst, tdst) != tdst:
                    conflict = src if vmap[src] != tsrc else dst
        if conflict is not None:
            out.append(f"{name} is not an automorphism: vertex {conflict!r} has conflicting images")

    wp, wq, wpq = (graph.involution(n) for n in INVOLUTION_NAMES)
    if all(w.keys() == edge_set for w in (wp, wq, wpq)):
        for eid in edges:
            if wpq[eid] != wp.get(wq[eid]):
                out.append(f"wpq differs from wp o wq at {eid!r}")

    if dual_graph_checks:
        for eid in _reversed_with_even_length(graph, wp, graph.base_edges()):
            out.append(f"edge {eid!r} has even length and is reversed by wp")

    return out


def _image(name: str, w: Mapping[str, str], eid: str) -> str:
    """The image of eid under the involution ``name``, which is w;
    ValueError naming both when w has none."""
    try:
        return w[eid]
    except KeyError:
        raise ValueError(f"{name} has no image for edge {eid!r}") from None


def _length(graph: LengthedQuotientGraph, eid: str) -> int:
    """The length of eid; ValueError naming it when the graph has none."""
    try:
        return graph.edge_length[eid]
    except KeyError:
        raise ValueError(f"edge {eid!r} has no length") from None


def _orbit_id(eid: str, target: str) -> str:
    """The quotient's name for the orbit of eid, an oriented edge that its
    involution sends to target.

    The orbit pair {r, w(r)} and its opposite pair receive names that are
    again opposite: the smaller base id of r and w(r), which an edge shares
    with its opposite, names the orbit containing its plain orientation.
    So r lands on whichever of r, w(r) has that base id (r on a tie),
    made plain when the other one is that plain id.
    """
    base = eid[1:] if eid[:1] == "~" else eid
    if base <= (target[1:] if target[:1] == "~" else target):
        return base if target == base else eid
    return target


def quotient_edge_map(graph: LengthedQuotientGraph, name: str) -> dict[str, str]:
    """Where each oriented edge lands in the quotient by the named
    involution: the orbit ids ``_orbit_id`` gives quotient_by_involution.
    An edge the involution has no image for raises ValueError naming it."""
    w = graph.involution(name)
    return {eid: _orbit_id(eid, _image(name, w, eid)) for eid in graph.edge_endpoints}


def quotient_by_involution(graph: LengthedQuotientGraph, name: str) -> LengthedQuotientGraph:
    """Quotient the graph by one of its involutions.

    Vertices and oriented edges become orbits.  A quotient edge keeps the
    length of its lifts when the orbit is free and doubles it when the
    involution fixes the edge (the stabilizer upstairs doubles exactly
    then).  An involution sending an edge to its own opposite leaves the
    quotient length undefined and raises QuotientError, as does a
    remaining involution that fails to commute with the quotiented one.
    The quotiented involution descends to the identity; the bipartite
    flag survives only when the involution preserves the parity classes.
    The vertex action, the orbit ids (``_orbit_id``) and the first
    reversed edge, found by id rather than by endpoints, come from one
    pass, and a failing vertex action anywhere is reported before a
    reversed edge.
    """
    w = graph.involution(name)
    edges = graph.edge_endpoints
    vmap: dict[str, str] = {}
    edge_orbit: dict[str, str] = {}
    reversed_edge = None
    for eid, (src, dst) in edges.items():
        target = w.get(eid)
        image = edges.get(target)
        if image is None:
            raise QuotientError(f"{name} is not an automorphism: image of {eid!r} is not an edge")
        tsrc, tdst = image
        if vmap.setdefault(src, tsrc) != tsrc or vmap.setdefault(dst, tdst) != tdst:
            clash = src if vmap[src] != tsrc else dst
            raise QuotientError(f"{name} is not an automorphism: vertex {clash!r} has conflicting images")
        if reversed_edge is not None:
            continue  # reported once the whole vertex action is known
        if target == (eid[1:] if eid[:1] == "~" else "~" + eid):  # opposite(eid), without the call
            reversed_edge = eid
        else:
            edge_orbit[eid] = _orbit_id(eid, target)
    if reversed_edge is not None:
        raise QuotientError(f"{name} reverses edge {reversed_edge!r}; quotient length undefined")

    descended: dict[str, dict[str, str]] = {}
    for other in INVOLUTION_NAMES:
        if other == name:
            continue
        u, moved = graph.involution(other), {}
        # w sends each edge to an edge (checked above); u need not.  An
        # image that is no edge is reported once every edge commutes, and
        # a missing image ends the scan.  No edge reverses (that raised
        # above), so edge_orbit holds every edge, in edge order
        not_permutation = False
        try:
            for eid, orbit in edge_orbit.items():
                target = u[eid]
                if u[w[eid]] != w[target]:
                    raise QuotientError(f"{other} does not commute with {name}; descent undefined")
                moved[orbit] = image = edge_orbit.get(target)
                not_permutation |= image is None
        except KeyError:
            not_permutation = True
        if not_permutation:
            raise QuotientError(f"{other} is not a permutation of the oriented edges")
        descended[other] = moved

    if vmap.keys() - graph.vertex_parity.keys():
        raise QuotientError("an edge touches an undeclared vertex")
    # vmap misses only isolated vertices, which stay put
    vertex_orbit = {v: min(v, vmap.get(v, v)) for v in graph.vertex_parity}
    parities = {orbit: graph.vertex_parity[orbit] for orbit in vertex_orbit.values()}
    bipartite = graph.bipartite and all(
        graph.vertex_parity[v] == graph.vertex_parity[vmap.get(v, v)] for v in graph.vertex_parity
    )

    endpoints: dict[str, tuple[str, str]] = {}
    lengths: dict[str, int] = {}
    for eid, orbit in edge_orbit.items():
        src, dst = edges[eid]
        image = (vertex_orbit[src], vertex_orbit[dst])
        if endpoints.setdefault(orbit, image) != image:
            raise QuotientError(f"orbit of {eid!r} has inconsistent endpoints")
        # _length only on a miss, to name the edge; on a stored 0 it returns that 0
        length = (graph.edge_length.get(eid) or _length(graph, eid)) * (2 if w[eid] == eid else 1)
        if lengths.setdefault(orbit, length) != length:
            raise QuotientError(f"orbit of {eid!r} has inconsistent lengths")
    descended[name] = {orbit: orbit for orbit in endpoints}

    return LengthedQuotientGraph(parities, endpoints, lengths, descended, bipartite)


def base_change(
    graph: LengthedQuotientGraph, e: int, f: int
) -> tuple[LengthedQuotientGraph, dict[str, str]]:
    """Dual graph after base change with ramification e and residue degree f.

    Edge lengths are multiplied by e; the Frobenius action is wp^f, so wp
    itself for odd f and the identity for even f.  Returns the new graph
    together with the Frobenius edge permutation.
    """
    if not (isinstance(e, int) and isinstance(f, int)) or e < 1 or f < 1:
        raise ValueError("e and f must be positive integers")
    # instances are immutable, so the unchanged tables are shared
    scaled = LengthedQuotientGraph(
        graph.vertex_parity,
        graph.edge_endpoints,
        {eid: n * e for eid, n in graph.edge_length.items()},
        graph.involutions,
        graph.bipartite,
    )
    frobenius = dict(graph.involution("wp")) if f % 2 else {eid: eid for eid in graph.edge_endpoints}
    return scaled, frobenius


def has_local_point(
    graph: LengthedQuotientGraph, frobenius: Mapping[str, str] | str
) -> tuple[bool, str | None]:
    """Whether a point exists over the local field the graph describes.

    When Frobenius exchanges the two vertex classes every rational point
    specializes to a singularity, so existence comes down to an oriented
    edge r of even length with frobenius(r) = ~r.  Returns the verdict and
    the first witness edge in sorted order, if any.
    """
    frob = graph.involution(frobenius) if isinstance(frobenius, str) else frobenius
    witnesses = _reversed_with_even_length(graph, frob, graph.edge_endpoints)
    return (True, min(witnesses)) if witnesses else (False, None)


def lift_case_analysis(graph: LengthedQuotientGraph, s: str) -> LiftCase:
    """Classify an edge of the covering graph lying over a local-point
    witness of the quotient by wq.

    Such an edge satisfies (1) even length or wq-fixed, and (2) wp- or
    wpq-reversed; these are preconditions.  The even-length wp-reversed
    combination is excluded on quaternionic dual graphs (both ramified
    primes odd) and raises ImpossibleCaseError.  When the edge is wq-fixed
    and wpq-reversed, wp-reversal follows because wp = wpq o wq; the two
    surviving cases are the returned tags.
    """
    if s not in graph.edge_endpoints:
        raise ValueError(f"unknown edge {s!r}")
    length = _length(graph, s)
    wp, wq, wpq = (graph.involution(n) for n in INVOLUTION_NAMES)
    wp_s, wq_s, wpq_s = (_image(n, w, s) for n, w in zip(INVOLUTION_NAMES, (wp, wq, wpq)))
    sbar = opposite(s)
    even = length % 2 == 0
    if not (even or wq_s == s):
        raise ValueError("edge fails condition (1): even length or wq-fixed")
    if not (wp_s == sbar or wpq_s == sbar):
        raise ValueError("edge fails condition (2): wp- or wpq-reversed")

    if wq_s == s and wpq_s == sbar and wp_s != sbar:
        raise ValueError("inconsistent involutions: wq-fixed and wpq-reversed forces wp-reversal")
    if _reversed_with_even_length(graph, wp, [s]):
        raise ImpossibleCaseError(
            f"edge {s!r} has even length and is reversed by wp; "
            "impossible on a quaternionic dual graph"
        )
    if even:
        return LiftCase.EVEN_LENGTH_WPQ_REVERSED
    # odd, so wq-fixed by (1), and then wp-reversed by (2) and the check above
    return LiftCase.WQ_FIXED_WP_REVERSED
