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
three share one predicate for the criterion, ``_reversed_with_even_length``.

File format, one record per line, UTF-8::

    v <id> <even|odd>            vertex and its class
    e <id> <from> <to> <length>  oriented edge pair: declares <id> and its
                                 opposite ~<id> (endpoints reversed, same
                                 length)
    inv <wp|wq|wpq> [<a> <b>]... involution as id -> id pairs; edges not
                                 mentioned are fixed; ~ selects opposites

Blank lines and lines starting with ``#`` are ignored; anything else is a
parse error carrying its line number.  Serialization is canonical and
round-trips.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping

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
    return edge_id[1:] if edge_id.startswith("~") else "~" + edge_id


def _base_id(edge_id: str) -> str:
    return edge_id[1:] if edge_id.startswith("~") else edge_id


@dataclass(frozen=True, eq=True)
class LengthedQuotientGraph:
    """Parity-classed graph with lengthed opposite edge pairs and the
    three named involutions.

    ``edge_endpoints`` and ``edge_length`` are keyed by every oriented
    edge (both e and ~e); each involution is a total map on oriented
    edges.  The ``bipartite`` flag declares that every edge joins the two
    parity classes; parsed graphs always declare it, while a quotient by
    a class-exchanging involution clears it.  Instances are treated as
    immutable; ``validate`` reports any invariant violations as values.
    """

    vertex_parity: dict[str, str]
    edge_endpoints: dict[str, tuple[str, str]]
    edge_length: dict[str, int]
    involutions: dict[str, dict[str, str]]
    bipartite: bool = True

    def base_edges(self) -> list[str]:
        return sorted(e for e in self.edge_endpoints if not e.startswith("~"))

    def oriented_edges(self) -> list[str]:
        return sorted(self.edge_endpoints)

    def involution(self, name: str) -> dict[str, str]:
        """The named involution; ValueError if the name is unknown or the graph lacks it."""
        if name not in INVOLUTION_NAMES:
            raise ValueError(f"unknown involution {name!r}")
        if name not in self.involutions:
            raise ValueError(f"graph has no involution {name!r}")
        return self.involutions[name]


def _expand_edge_tables(
    base_edges: list[tuple[str, str, str, int]],
) -> tuple[dict[str, tuple[str, str]], dict[str, int]]:
    endpoints: dict[str, tuple[str, str]] = {}
    lengths: dict[str, int] = {}
    for eid, src, dst, length in base_edges:
        endpoints[eid] = (src, dst)
        endpoints[opposite(eid)] = (dst, src)
        lengths[eid] = length
        lengths[opposite(eid)] = length
    return endpoints, lengths


def _expand_involution(
    oriented_ids: set[str], name: str, pairs: list[tuple[str, str]]
) -> dict[str, str]:
    """Total involution from generator pairs.

    Each a -> b forces b -> a and the opposites ~a -> ~b, ~b -> ~a;
    unlisted edges stay fixed.  Contradictions raise ValueError.
    """
    mapping = {e: e for e in oriented_ids}
    assigned: set[str] = set()
    for a, b in pairs:
        for x, y in ((a, b), (b, a), (opposite(a), opposite(b)), (opposite(b), opposite(a))):
            if x not in mapping or y not in mapping:
                raise ValueError(f"involution {name} mentions unknown edge {x!r}")
            if x in assigned and mapping[x] != y:
                raise ValueError(f"involution {name} maps {x!r} inconsistently")
            mapping[x] = y
            assigned.add(x)
    return mapping


def parse_graph(text: str) -> LengthedQuotientGraph:
    """Parse the line-oriented format; raises GraphParseError with the
    offending line number."""
    vertices: dict[str, str] = {}
    base_edges: list[tuple[str, str, str, int]] = []
    edge_ids: set[str] = set()
    inv_lines: list[tuple[int, str, list[str]]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
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
            if eid.startswith("~"):
                raise GraphParseError(lineno, "edge ids must not start with ~")
            if eid in edge_ids:
                raise GraphParseError(lineno, f"duplicate edge {eid!r}")
            if src not in vertices or dst not in vertices:
                raise GraphParseError(lineno, "edge endpoints must be declared first")
            try:
                length = int(raw_len)
            except ValueError:
                raise GraphParseError(lineno, f"bad length {raw_len!r}") from None
            if length < 1:
                raise GraphParseError(lineno, "length must be a positive integer")
            edge_ids.add(eid)
            base_edges.append((eid, src, dst, length))
        elif kind == "inv":
            if len(tokens) < 2 or tokens[1] not in INVOLUTION_NAMES:
                raise GraphParseError(lineno, "involution line needs: inv <wp|wq|wpq> [pairs]")
            if len(tokens) % 2:
                raise GraphParseError(lineno, "involution pairs come in twos")
            inv_lines.append((lineno, tokens[1], tokens[2:]))
        else:
            raise GraphParseError(lineno, f"unknown record {kind!r}")

    endpoints, lengths = _expand_edge_tables(base_edges)
    oriented_ids = set(endpoints)
    involutions = {name: {e: e for e in oriented_ids} for name in INVOLUTION_NAMES}
    seen: set[str] = set()
    for lineno, name, flat in inv_lines:
        if name in seen:
            raise GraphParseError(lineno, f"involution {name} declared twice")
        seen.add(name)
        try:
            involutions[name] = _expand_involution(
                oriented_ids, name, list(zip(flat[0::2], flat[1::2]))
            )
        except ValueError as exc:
            raise GraphParseError(lineno, str(exc)) from exc

    return LengthedQuotientGraph(
        vertex_parity=vertices,
        edge_endpoints=endpoints,
        edge_length=lengths,
        involutions=involutions,
    )


def serialize_graph(graph: LengthedQuotientGraph) -> str:
    """Canonical text form; ``parse_graph`` inverts it exactly.

    The format has no record for the bipartite flag (parsed graphs always
    declare it), so only flagged graphs round-trip to equal values.
    """
    lines = []
    for vid in sorted(graph.vertex_parity):
        lines.append(f"v {vid} {graph.vertex_parity[vid]}")
    for eid in graph.base_edges():
        src, dst = graph.edge_endpoints[eid]
        lines.append(f"e {eid} {src} {dst} {graph.edge_length[eid]}")
    for name in INVOLUTION_NAMES:
        w = graph.involution(name)
        parts = [f"inv {name}"]
        for eid in graph.base_edges():
            target = w[eid]
            # a moved edge is listed from the smaller base id; a reversal
            # e -> ~e has the same base id on both sides
            if target != eid and _base_id(target) >= eid:
                parts.extend([eid, target])
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def _reversed_with_even_length(
    graph: LengthedQuotientGraph, w: Mapping[str, str], eid: str
) -> bool:
    """Whether w sends the oriented edge eid to its opposite and eid has
    even length.  An edge with no length or no image under w does not
    meet the criterion."""
    return graph.edge_length.get(eid, 1) % 2 == 0 and w.get(eid) == opposite(eid)


def _derived_vertex_map(graph: LengthedQuotientGraph, w: Mapping[str, str]) -> dict[str, str] | str:
    """Vertex action forced by an edge permutation, or an error message
    when the images of a shared endpoint disagree."""
    vmap: dict[str, str] = {}
    for eid, (src, dst) in graph.edge_endpoints.items():
        target = w.get(eid)
        if target is None or target not in graph.edge_endpoints:
            return f"image of {eid!r} is not an edge"
        tsrc, tdst = graph.edge_endpoints[target]
        for vertex, image in ((src, tsrc), (dst, tdst)):
            if vmap.setdefault(vertex, image) != image:
                return f"vertex {vertex!r} has conflicting images"
    for vertex in graph.vertex_parity:
        vmap.setdefault(vertex, vertex)  # isolated vertices stay put
    return vmap


def validate(graph: LengthedQuotientGraph, dual_graph_checks: bool = False) -> list[str]:
    """All invariant violations, as strings; empty means valid.

    With ``dual_graph_checks`` the list also flags any edge of even length
    reversed by wp, a combination that cannot occur on the dual graph of a
    quaternionic Mumford curve with two odd ramified primes.
    """
    out: list[str] = []
    edges = graph.edge_endpoints

    for vid, parity in graph.vertex_parity.items():
        if parity not in ("even", "odd"):
            out.append(f"vertex {vid!r} has parity {parity!r}")

    for eid, (src, dst) in edges.items():
        opp = opposite(eid)
        if opp not in edges:
            out.append(f"edge {eid!r} has no opposite")
            continue
        if edges[opp] != (dst, src):
            out.append(f"opposite of {eid!r} does not reverse its endpoints")
        if graph.edge_length.get(eid) != graph.edge_length.get(opp):
            out.append(f"edge {eid!r} and its opposite differ in length")
        if graph.edge_length.get(eid, 0) < 1:
            out.append(f"edge {eid!r} has nonpositive length")
        if src not in graph.vertex_parity or dst not in graph.vertex_parity:
            out.append(f"edge {eid!r} touches an undeclared vertex")
        elif (
            graph.bipartite
            and not eid.startswith("~")
            and graph.vertex_parity[src] == graph.vertex_parity[dst]
        ):
            out.append(f"edge {eid!r} joins two {graph.vertex_parity[src]} vertices")

    if set(graph.involutions) != set(INVOLUTION_NAMES):
        out.append("involutions must be exactly wp, wq, wpq")
        return out

    for name in INVOLUTION_NAMES:
        w = graph.involution(name)
        if set(w) != set(edges) or set(w.values()) != set(edges):
            out.append(f"{name} is not a permutation of the oriented edges")
            continue
        for eid in edges:
            if w[w[eid]] != eid:
                out.append(f"{name} is not an involution at {eid!r}")
            if w[opposite(eid)] != opposite(w[eid]):
                out.append(f"{name} does not commute with opposition at {eid!r}")
            if graph.edge_length.get(w[eid]) != graph.edge_length.get(eid):
                out.append(f"{name} does not preserve the length of {eid!r}")
        vmap = _derived_vertex_map(graph, w)
        if isinstance(vmap, str):
            out.append(f"{name} is not an automorphism: {vmap}")

    wp, wq, wpq = (graph.involution(n) for n in INVOLUTION_NAMES)
    if set(wp) == set(edges) and set(wq) == set(edges) and set(wpq) == set(edges):
        for eid in edges:
            if wpq[eid] != wp.get(wq[eid]):
                out.append(f"wpq differs from wp o wq at {eid!r}")

    if dual_graph_checks:
        for eid in graph.base_edges():
            if _reversed_with_even_length(graph, wp, eid):
                out.append(f"edge {eid!r} has even length and is reversed by wp")

    return out


def _orbit_rep(eid: str, w: Mapping[str, str]) -> str:
    """Canonical name of the w-orbit of an oriented edge.

    The orbit pair {r, w(r)} and its opposite pair receive names that are
    again opposite: the smaller base id of r and w(r), which an edge shares
    with its opposite, names the orbit containing its plain orientation.
    """
    target = w[eid]
    rep_base = min(_base_id(eid), _base_id(target))
    return rep_base if rep_base in (eid, target) else "~" + rep_base


def quotient_edge_map(graph: LengthedQuotientGraph, name: str) -> dict[str, str]:
    """Where each oriented edge lands in the quotient by the named
    involution (the canonical orbit ids used by quotient_by_involution)."""
    w = graph.involution(name)
    return {eid: _orbit_rep(eid, w) for eid in graph.edge_endpoints}


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
    """
    w = graph.involution(name)
    vmap = _derived_vertex_map(graph, w)
    if isinstance(vmap, str):
        raise QuotientError(f"{name} is not an automorphism: {vmap}")

    for eid in graph.edge_endpoints:
        if w[eid] == opposite(eid):
            raise QuotientError(f"{name} reverses edge {eid!r}; quotient length undefined")

    for other in INVOLUTION_NAMES:
        if other == name:
            continue
        u = graph.involution(other)
        try:
            for eid in graph.edge_endpoints:
                if u[w[eid]] != w[u[eid]]:
                    raise QuotientError(f"{other} does not commute with {name}; descent undefined")
        except KeyError:
            # w is a total map on the edges (checked above), so u is not
            raise QuotientError(f"{other} is not a permutation of the oriented edges") from None

    vertex_orbit = {v: min(v, vmap[v]) for v in graph.vertex_parity}
    parities = {
        orbit: graph.vertex_parity[orbit] for orbit in set(vertex_orbit.values())
    }
    preserves_classes = all(
        graph.vertex_parity[v] == graph.vertex_parity[vmap[v]] for v in graph.vertex_parity
    )

    edge_orbit = quotient_edge_map(graph, name)

    endpoints: dict[str, tuple[str, str]] = {}
    lengths: dict[str, int] = {}
    for eid, orbit in edge_orbit.items():
        src, dst = graph.edge_endpoints[eid]
        image = (vertex_orbit[src], vertex_orbit[dst])
        if endpoints.setdefault(orbit, image) != image:
            raise QuotientError(f"orbit of {eid!r} has inconsistent endpoints")
        length = graph.edge_length[eid] * (2 if w[eid] == eid else 1)
        if lengths.setdefault(orbit, length) != length:
            raise QuotientError(f"orbit of {eid!r} has inconsistent lengths")

    descended: dict[str, dict[str, str]] = {}
    for other in INVOLUTION_NAMES:
        if other == name:
            descended[other] = {orbit: orbit for orbit in endpoints}
        else:
            u = graph.involution(other)
            descended[other] = {
                edge_orbit[eid]: edge_orbit[u[eid]] for eid in graph.edge_endpoints
            }

    return LengthedQuotientGraph(
        vertex_parity=parities,
        edge_endpoints=endpoints,
        edge_length=lengths,
        involutions=descended,
        bipartite=graph.bipartite and preserves_classes,
    )


def base_change(
    graph: LengthedQuotientGraph, e: int, f: int
) -> tuple[LengthedQuotientGraph, dict[str, str]]:
    """Dual graph after base change with ramification e and residue degree f.

    Edge lengths are multiplied by e; the Frobenius action is wp^f, so wp
    itself for odd f and the identity for even f.  Returns the new graph
    together with the Frobenius edge permutation.
    """
    if e < 1 or f < 1:
        raise ValueError("e and f must be positive integers")
    # instances are immutable, so the unchanged tables are shared
    scaled = replace(graph, edge_length={eid: n * e for eid, n in graph.edge_length.items()})
    if f % 2:
        frobenius = dict(graph.involution("wp"))
    else:
        frobenius = {eid: eid for eid in graph.edge_endpoints}
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
    for eid in graph.oriented_edges():
        if _reversed_with_even_length(graph, frob, eid):
            return True, eid
    return False, None


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
    if s not in graph.edge_length:
        raise ValueError(f"edge {s!r} has no length")
    wp, wq, wpq = (graph.involution(n) for n in INVOLUTION_NAMES)
    for name, w in zip(INVOLUTION_NAMES, (wp, wq, wpq)):
        if s not in w:
            raise ValueError(f"{name} has no image for edge {s!r}")
    sbar = opposite(s)
    even = graph.edge_length[s] % 2 == 0
    if not (even or wq[s] == s):
        raise ValueError("edge fails condition (1): even length or wq-fixed")
    if not (wp[s] == sbar or wpq[s] == sbar):
        raise ValueError("edge fails condition (2): wp- or wpq-reversed")

    if wq[s] == s and wpq[s] == sbar and wp[s] != sbar:
        raise ValueError("inconsistent involutions: wq-fixed and wpq-reversed forces wp-reversal")
    if _reversed_with_even_length(graph, wp, s):
        raise ImpossibleCaseError(
            f"edge {s!r} has even length and is reversed by wp; "
            "impossible on a quaternionic dual graph"
        )
    if even:
        return LiftCase.EVEN_LENGTH_WPQ_REVERSED
    # odd, so wq-fixed by (1), and then wp-reversed by (2) and the check above
    return LiftCase.WQ_FIXED_WP_REVERSED
