"""The four workloads: how one operation drives alquot, and how its output
is checked outside the timed section.

Operations reach alquot through module attributes (``cli.main``,
``quaternion.ramified_places``, ...) at call time, so the tracer's
rebinding applies to them.  A check returns the number of failed
operations and a note on the first problem; it uses the benchmark's own
arithmetic from ``refarith`` wherever an independent value is cheap, and
otherwise an identity that must hold between alquot's own results.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import os
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import alquot.cli as cli
import alquot.mumford_graph as mumford_graph
import alquot.ntheory as ntheory
import alquot.quaternion as quaternion

import calibration
import inputs
import refarith

DEFAULT_SEED = 1
DIGESTS = json.loads((Path(__file__).parent / "digests.json").read_text())

ENUMERATE_MAX = 2500
CSV_HEADER = ["p", "q", "disc", "g_VB", "e_p", "g_quotient", "deficient_places",
              "verdict", "hyperelliptic_flag", "assumptions"]
# A hyperelliptic quotient forces (p-1)(q-1) <= 240 (the sieve's bound).
HYPERELLIPTIC_PRODUCT_BOUND = 240


def _capture(argv: list[str]) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"{argv[0]} exited {code}")
    return buffer.getvalue()


def record_problem(p, q, disc, g_vb, e_p, g_quotient, deficient, verdict, flag, assumptions):
    """First violated expectation of one certificate record, or None."""
    product = (p - 1) * (q - 1)
    expected_flag = ("not_hyperelliptic" if product > HYPERELLIPTIC_PRODUCT_BOUND
                     else "possibly_hyperelliptic")
    for ok, what in (
        (refarith.admissible(p, q), "pair is not admissible"),
        (disc == p * q, "disc != pq"),
        (g_vb == refarith.genus_vb(p, q), "g_VB differs from the closed form"),
        (e_p % 8 == 4, "e_p is not 4 mod 8"),
        (4 * g_quotient == 2 * (g_vb + 1) - e_p, "g_quotient breaks Riemann-Hurwitz"),
        (deficient == [str(q)], "deficient places are not exactly {q}"),
        (verdict == "odd", "verdict is not odd"),
        (flag == expected_flag, "hyperelliptic flag is wrong"),
        (len(assumptions) > 0, "no assumptions cited"),
    ):
        if not ok:
            return f"({p}, {q}): {what}"
    return None


def _split(cell: str) -> list[str]:
    return cell.split(";") if cell else []


class Enumerate:
    """One ``alquot enumerate --max 2500 --format csv --out FILE``; one
    operation per output record."""

    name = "enumerate"

    def __init__(self, bound: int = ENUMERATE_MAX):
        self.bound = bound

    def blocks(self, seed: int, workdir: Path):
        primes = refarith.primes_upto(self.bound)
        expected = [(p, q) for p in primes for q in primes if refarith.admissible(p, q)]
        yield [(str(workdir / "enumerate.csv"), expected)]

    def size(self, item) -> int:
        return len(item[1])

    def describe(self, block) -> dict:
        return _describe_pairs(block[0][1])

    def reference(self, seed: int) -> str | None:
        """The table does not depend on the seed, only on the bound."""
        return DIGESTS.get(self.name) if self.bound == ENUMERATE_MAX else None

    def run(self, item):
        _capture(["enumerate", "--max", str(self.bound), "--format", "csv", "--out", item[0]])

    def render(self, item, raw):
        with open(item[0], encoding="utf-8") as handle:
            text = handle.read()
        return text, text, None

    def check(self, item, output: str, keep) -> tuple[int, str | None]:
        _, expected = item
        rows = list(csv.reader(io.StringIO(output)))
        if not rows or rows[0] != CSV_HEADER:
            return len(expected), "CSV header differs"
        problems = []
        seen = {}
        for row in rows[1:]:
            try:
                p, q, disc, g_vb, e_p, g_quot = (int(x) for x in row[:6])
                seen[(p, q)] = record_problem(p, q, disc, g_vb, e_p, g_quot, _split(row[6]),
                                              row[7], row[8], _split(row[9]))
            except (ValueError, IndexError):
                problems.append(f"malformed row {row!r}")
        if list(seen) != expected:
            missing = set(expected) - set(seen)
            extra = set(seen) - set(expected)
            problems += [f"missing {pq}" for pq in sorted(missing)]
            problems += [f"unexpected {pq}" for pq in sorted(extra)]
            if not missing and not extra:
                problems.append("rows out of order")
        problems += [note for note in seen.values() if note]
        return min(len(problems), len(expected)), (problems[0] if problems else None)


def _describe_pairs(pairs) -> dict:
    return {"pairs": len(pairs), "distinct_p": len({p for p, _ in pairs}),
            "p_min": min(p for p, _ in pairs), "p_max": max(p for p, _ in pairs),
            "q_min": min(q for _, q in pairs), "q_max": max(q for _, q in pairs)}


class _Seeded:
    """One operation per item; inputs, and so the stored digest, depend on the seed."""

    def size(self, item) -> int:
        return 1

    def reference(self, seed: int) -> str | None:
        return DIGESTS.get(self.name) if seed == DEFAULT_SEED else None


class CertifyLarge(_Seeded):
    """``alquot certify P Q --format json`` on pairs with distinct large p."""

    name = "certify_large"

    def blocks(self, seed: int, workdir: Path):
        return iter(inputs.certify_pairs(seed))

    def describe(self, block) -> dict:
        return _describe_pairs(block)

    def run(self, item):
        p, q = item
        return _capture(["certify", str(p), str(q), "--format", "json"])

    def render(self, item, raw):
        return raw, raw, None

    def check(self, item, output: str, keep) -> tuple[int, str | None]:
        p, q = item
        try:
            rec = json.loads(output)
            fields = [rec[k] for k in CSV_HEADER]
        except (ValueError, KeyError) as exc:
            return 1, f"({p}, {q}): unreadable record: {exc}"
        if fields[:2] != [p, q]:
            return 1, f"({p}, {q}): record is for {fields[:2]}"
        note = record_problem(*fields)
        return (1, note) if note else (0, None)


def _places(places) -> str:
    """Ramification set as sorted integers, with the real place as 0."""
    return ",".join(str(v) for v in sorted(places))


class Symbols(_Seeded):
    """Hilbert-symbol and quaternion-algebra queries on seeded (a, b, ell)."""

    name = "symbols"

    def blocks(self, seed: int, workdir: Path):
        return (inputs.symbol_block(seed, i) for i in itertools.count())

    def describe(self, block) -> dict:
        return {"queries": len(block), "abs_a_max": max(abs(a) for a, _, _ in block),
                "abs_b_max": max(abs(b) for _, b, _ in block),
                "ell_min": min(ell for _, _, ell in block), "ell_max": max(ell for _, _, ell in block)}

    def run(self, item):
        a, b, ell = item
        ram = quaternion.ramified_places(a, b)
        algebra = quaternion.QuaternionAlgebra(ram)
        disc = quaternion.reduced_discriminant(algebra)
        h = quaternion.eichler_class_number(disc) if algebra.is_definite else 0
        odd = sorted(v.prime for v in ram if v.is_finite and v.prime != 2)
        swapped = quaternion.interchange(algebra, odd[0]).ram_set if odd else None
        return ram, disc, h, swapped, ntheory.hilbert_symbol(a, b, ntheory.Place(ell))

    def render(self, item, raw):
        ram, disc, h, swapped, symbol = raw

        def ints(places):
            return _places(v.prime or refarith.INF for v in places)

        swapped_text = "-" if swapped is None else ints(swapped)
        return f"{ints(ram)} {disc} {h} {swapped_text} {symbol:+d}", "", None

    @staticmethod
    def expected(a: int, b: int, ell: int, ram: frozenset[int]) -> str:
        finite = sorted(ram - {refarith.INF})
        disc = 1
        for v in finite:
            disc *= v
        h = refarith.eichler(finite) if refarith.INF in ram else 0
        odd = [v for v in finite if v != 2]
        if odd:
            # interchange at p: p is ramified afterwards iff oo was, and oo is
            swapped = (ram - {odd[0], refarith.INF}) | {refarith.INF}
            if refarith.INF in ram:
                swapped |= {odd[0]}
            swapped_text = _places(swapped)
        else:
            swapped_text = "-"
        return f"{_places(ram)} {disc} {h} {swapped_text} {refarith.hilbert(a, b, ell):+d}"

    def check(self, item, output: str, keep) -> tuple[int, str | None]:
        a, b, ell = item
        ram = refarith.ramified(a, b)
        if len(ram) % 2:
            return 1, f"({a}, {b}): product formula fails"
        if refarith.hilbert(a, b, ell) != refarith.hilbert(b, a, ell):
            return 1, f"({a}, {b}, {ell}): reference symbol is not symmetric"
        want = self.expected(a, b, ell, ram)
        if output != want:
            return 1, f"({a}, {b}, {ell}): got {output!r}, want {want!r}"
        return 0, None


class Graph(_Seeded):
    """``alquot graph-check`` on a seeded graph file, then quotients, base
    change with a local-point test, and a serialization round trip."""

    name = "graph"

    def blocks(self, seed: int, workdir: Path):
        blocks = []
        for b, block in enumerate(inputs.graph_blocks(seed)):
            items = []
            for i, (text, frobenius, expect) in enumerate(block):
                path = workdir / f"graph-{b}-{i}.txt"
                path.write_text(text, encoding="utf-8")
                items.append((str(path), frobenius, expect, 2 * text.count("\ne ")))
            blocks.append(items)
        return itertools.cycle(blocks)

    def describe(self, block) -> dict:
        edges = [item[3] for item in block]
        return {"graphs": len(block), "oriented_edges": sum(edges), "oriented_edges_min": min(edges),
                "oriented_edges_max": max(edges),
                "wp_reverses_an_edge": sum(item[2]["wp"][0] for item in block)}

    def run(self, item):
        path, frobenius, _, _ = item
        report = _capture(["graph-check", path, "--frobenius", frobenius])
        with open(path, encoding="utf-8") as handle:
            graph = mumford_graph.parse_graph(handle.read())
        quotients = []
        for name in inputs.INVOLUTIONS:
            try:
                quotient = mumford_graph.quotient_by_involution(graph, name)
                quotients.append(str(len(quotient.edge_endpoints)))
            except mumford_graph.QuotientError:
                quotients.append("error")
        found, _ = mumford_graph.has_local_point(*mumford_graph.base_change(graph, 2, 1))
        reparsed = mumford_graph.parse_graph(mumford_graph.serialize_graph(graph))
        return report, quotients, found, graph, reparsed

    def render(self, item, raw):
        report, quotients, found, graph, reparsed = raw
        line = f"{report}quotients {' '.join(quotients)}\nbase change local point {found}\n"
        return line, report, (graph, reparsed)

    def check(self, item, output: str, keep) -> tuple[int, str | None]:
        path, frobenius, expect, _ = item
        graph, reparsed = keep
        name = os.path.basename(path)
        want_point = "yes" if expect[frobenius][1] else "no"
        lines = output.splitlines()
        if lines[0] != "violations: none" or not lines[1].startswith(f"local point: {want_point}"):
            return 1, f"{name}: graph-check reported {lines[:2]}"
        # a quotient is undefined exactly when the involution reverses an edge
        errors = [x == "error" for x in lines[2].split()[1:]]
        if errors != [expect[w][0] for w in inputs.INVOLUTIONS]:
            return 1, f"{name}: quotient outcomes {lines[2]!r}, expected reversals {expect}"
        if lines[3] != f"base change local point {expect['wp'][0]}":
            return 1, f"{name}: {lines[3]!r} after base change"
        if mumford_graph.validate(graph):
            return 1, f"{name}: validate reports violations"
        if reparsed != graph:
            return 1, f"{name}: serialize/parse round trip changed the graph"
        return 0, None


WORKLOADS = {w.name: w for w in (Enumerate(), CertifyLarge(), Symbols(), Graph())}


def measure(workload, seed: int, seconds: float, workdir: Path, tracer=None,
            max_blocks: int | None = None, outputs: list | None = None) -> dict:
    """Run whole blocks of operations until ``seconds`` of timed work or
    ``max_blocks`` blocks are done.  Only the operation itself is timed;
    making inputs, checking outputs and the calibration loop are taken out.
    ``raw_s`` is the timed work as measured; ``timed_s`` and the latencies
    are scaled per block by the calibration loop's samples."""
    latencies: list[float] = []
    attempted = failed = cli_bytes = 0
    raw_total = timed = 0.0
    notes: list[str] = []
    properties: dict = {}
    reference = workload.reference(seed)
    wall_limit = perf_counter() + seconds + 60
    with calibration.Sampler() as sampler:
        for index, block in enumerate(workload.blocks(seed, workdir)):
            first_sample = len(sampler.samples)
            digest = hashlib.sha256()
            block_ops = block_failed = 0
            block_latencies: list[float] = []
            for item in block:
                if tracer is not None:
                    tracer.enabled = True
                spent = sampler.spent
                start = perf_counter()
                try:
                    raw = workload.run(item)
                    error = None
                except Exception as exc:  # a failed operation is counted, not fatal
                    error = exc
                elapsed = perf_counter() - start - (sampler.spent - spent)
                if tracer is not None:
                    tracer.enabled = False
                block_latencies.append(elapsed)
                output, cli_text, n = "", "", workload.size(item)
                if error is None:
                    try:
                        output, cli_text, keep = workload.render(item, raw)
                        bad, note = workload.check(item, output, keep)
                    except Exception as exc:  # a wrong output can break its check
                        error = exc
                if error is not None:
                    bad, note = n, f"{type(error).__name__}: {error}"
                block_ops += n
                block_failed += bad
                if note and len(notes) < 5:
                    notes.append(note)
                cli_bytes += len(cli_text.encode())
                digest.update(output.encode() + b"\0")
                if outputs is not None:
                    outputs.append(output)
            samples = sampler.samples[first_sample:] or calibration.loop_samples(3)
            scale = calibration.scale(samples)
            latencies += [x * scale * 1000 for x in block_latencies]
            raw_total += sum(block_latencies)
            timed += sum(block_latencies) * scale
            if index == 0:
                first_digest = digest.hexdigest()
                if reference is not None and first_digest != reference:
                    if len(notes) < 5:
                        notes.append(f"{workload.name}: first block differs from the stored digest")
                    block_failed = block_ops
            attempted += block_ops
            failed += block_failed
            inputs.merge_properties(properties, workload.describe(block))
            if (raw_total >= seconds or (max_blocks and index + 1 >= max_blocks)
                    or perf_counter() > wall_limit):
                break
    return {"attempted": attempted, "failed": failed, "timed_s": timed, "raw_s": raw_total,
            "digest": first_digest, "latencies_ms": latencies, "cli_bytes": cli_bytes,
            "notes": notes, "inputs": properties}
