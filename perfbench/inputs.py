"""Seeded input generators.

Every generator is a pure function of the seed, so a run is reproducible
from its command line.  Inputs come in blocks; a block is stratified over
the property that sets an operation's cost (p for certify, magnitudes for
symbols, edge count for graphs), so any whole number of blocks has nearly
the same cost mix and run-to-run spread stays small.  The program sees
only the generated values.
"""

from __future__ import annotations

import math
from random import Random

from refarith import admissible, next_prime, primes_upto

STRATA = 10

CERTIFY_P = (10_000, 200_000)
CERTIFY_Q = (10_000, 10_000_000)

SYMBOL_BLOCK = 1000
SYMBOL_ABS_MAX = 10**6
SYMBOL_ELL_MAX = 10**9

GRAPH_BLOCK = 50
GRAPH_BLOCKS = 4
GRAPH_SEED_EDGES = (3, 60)
GRAPH_MAX_LENGTH = 6


def _log_uniform(rng: Random, lo: float, hi: float, u: float | None = None) -> int:
    u = rng.random() if u is None else u
    return int(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))


def merge_properties(into: dict, new: dict) -> dict:
    """Combine block descriptions: ``_min``/``_max`` keys by min/max,
    every other key by sum."""
    for key, value in new.items():
        if key not in into:
            into[key] = value
        elif key.endswith("_min"):
            into[key] = min(into[key], value)
        elif key.endswith("_max"):
            into[key] = max(into[key], value)
        else:
            into[key] += value
    return into


# --- certify_large -------------------------------------------------------


def certify_pairs(seed: int) -> list[list[tuple[int, int]]]:
    """Blocks of admissible pairs with pairwise distinct p.

    p is log-uniform over CERTIFY_P: each block holds one p from each of
    STRATA log-spaced strata, and q is log-uniform over CERTIFY_Q.
    """
    rng = Random(f"certify_large:{seed}")
    lo, hi = CERTIFY_P
    edges = [lo * (hi / lo) ** (k / STRATA) for k in range(STRATA + 1)]
    strata: list[list[int]] = [[] for _ in range(STRATA)]
    for p in primes_upto(hi):
        if p >= lo and p % 24 == 5:
            strata[min(STRATA - 1, sum(p >= e for e in edges[1:-1]))].append(p)
    for stratum in strata:
        rng.shuffle(stratum)
    blocks = []
    for i in range(min(len(s) for s in strata)):
        ps = [s[i] for s in strata]
        rng.shuffle(ps)
        blocks.append([(p, _admissible_q(rng, p)) for p in ps])
    return blocks


def _admissible_q(rng: Random, p: int) -> int:
    lo, hi = CERTIFY_Q
    while True:
        x = _log_uniform(rng, lo, hi)
        q = x - x % 12 + 5
        while q <= hi and not admissible(p, q):
            q += 12
        if q <= hi:
            return q


# --- symbols -------------------------------------------------------------


def symbol_block(seed: int, index: int) -> list[tuple[int, int, int]]:
    """Block ``index`` of (a, b, ell) queries: random signs, |a| and |b|
    stratified log-uniform below SYMBOL_ABS_MAX, ell a prime whose
    log-uniform starting point is stratified below SYMBOL_ELL_MAX."""
    rng = Random(f"symbols:{seed}:{index}")
    n = SYMBOL_BLOCK

    def stratified(hi: int) -> list[int]:
        values = [_log_uniform(rng, 1, hi, (k + rng.random()) / n) for k in range(n)]
        rng.shuffle(values)
        return values

    abs_a, abs_b = stratified(SYMBOL_ABS_MAX), stratified(SYMBOL_ABS_MAX)
    ells = [next_prime(x) for x in stratified(SYMBOL_ELL_MAX - 1000)]
    return [
        (rng.choice((-1, 1)) * a, rng.choice((-1, 1)) * b, ell)
        for a, b, ell in zip(abs_a, abs_b, ells)
    ]


# --- graph ---------------------------------------------------------------
#
# Graphs are built equivariantly under the Klein four-group, written as
# the integers 0..3 under xor: bit 0 is w_p, bit 1 is w_q.  Vertices are
# cosets of a stabilizer per vertex orbit, edges are orbits of seed edges,
# and the involutions act by translation, so every generated graph is
# valid with wpq = wp o wq.  Parity classes are exchanged by w_p and w_pq,
# which is why stabilizers stay inside {0, w_q}.  An involution reverses
# the edges of an orbit exactly when it swaps the seed edge's endpoints;
# the generator records which involutions reverse some edge, and which
# reverse an edge of even length, as independent expectations for the
# quotient and local-point results.

INVOLUTIONS = {"wp": 1, "wq": 2, "wpq": 3}
_STABILIZERS = (frozenset({0}), frozenset({0, 2}))


def _coset(g: int, stab: frozenset[int]) -> int:
    return min(g ^ s for s in stab)


def random_graph(rng: Random, seed_edges: int) -> tuple[str, dict[str, tuple[bool, bool]]]:
    """Graph file text and, per involution, (reverses some edge,
    reverses some edge of even length)."""
    orbits = [(frozenset({0}), 0), (frozenset({0}), 1)]
    for _ in range(rng.randint(0, max(1, seed_edges // 3))):
        orbits.append((rng.choice(_STABILIZERS), rng.randint(0, 1)))

    def act(g: int, vertex: tuple[int, int]) -> tuple[int, int]:
        i, rep = vertex
        return i, _coset(g ^ rep, orbits[i][0])

    def name(vertex: tuple[int, int]) -> str:
        return f"v{vertex[0]}_{vertex[1]}"

    parity = {}
    for i, (stab, base) in enumerate(orbits):
        for rep in sorted({_coset(g, stab) for g in range(4)}):
            parity[(i, rep)] = (base + rep) % 2  # bit 0 of rep is w_p
    sides = [[v for v, c in parity.items() if c == side] for side in (0, 1)]

    same_orbit_edges = rng.random() < 0.5
    seeds = [((0, 0), (1, 0))]
    while len(seeds) < seed_edges:
        u, v = rng.choice(sides[0]), rng.choice(sides[1])
        if same_orbit_edges or u[0] != v[0]:
            seeds.append((u, v))

    lines = [f"v {name(v)} {'even' if c == 0 else 'odd'}" for v, c in sorted(parity.items())]
    images: dict[str, dict[str, str]] = {w: {} for w in INVOLUTIONS}
    expect = {w: [False, False] for w in INVOLUTIONS}
    for m, (u, v) in enumerate(seeds):
        fixing = {g for g in range(4) if act(g, u) == u and act(g, v) == v}
        swapping = {g for g in range(4) if act(g, u) == v and act(g, v) == u}
        stab = frozenset(fixing | swapping)
        length = rng.randint(1, GRAPH_MAX_LENGTH)
        reps = sorted({_coset(g, stab) for g in range(4)})
        for k in reps:
            lines.append(f"e e{m}_{k} {name(act(k, u))} {name(act(k, v))} {length}")
        for w, g in INVOLUTIONS.items():
            if g in swapping:
                expect[w][0] = True
                expect[w][1] |= length % 2 == 0
            for k in reps:
                image = _coset(g ^ k, stab)
                flipped = (g ^ k ^ image) in swapping
                images[w][f"e{m}_{k}"] = ("~" if flipped else "") + f"e{m}_{image}"
    for w, mapping in images.items():
        pairs = []
        for edge, image in mapping.items():
            if image == edge or image.lstrip("~") < edge:
                continue  # fixed, or listed from the other end
            pairs += [edge, image]
        lines.append(" ".join(["inv", w] + pairs))
    return "\n".join(lines) + "\n", {w: (r, e) for w, (r, e) in expect.items()}


def graph_blocks(seed: int) -> list[list[tuple[str, str, dict]]]:
    """GRAPH_BLOCKS blocks of (file text, frobenius name, expectations);
    seed-edge counts are stratified over GRAPH_SEED_EDGES in each block."""
    rng = Random(f"graph:{seed}")
    lo, hi = GRAPH_SEED_EDGES
    blocks = []
    for _ in range(GRAPH_BLOCKS):
        sizes = [lo + (hi - lo) * (k + rng.random()) / GRAPH_BLOCK for k in range(GRAPH_BLOCK)]
        rng.shuffle(sizes)
        block = []
        for size in sizes:
            text, expect = random_graph(rng, int(size))
            block.append((text, rng.choice(sorted(INVOLUTIONS)), expect))
        blocks.append(block)
    return blocks

