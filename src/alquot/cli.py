"""Command-line front end.

Four subcommands with a stable contract: exit 0 on success, 1 on usage,
IO, or parse problems, 2 on domain rejections (inadmissible pairs), so
batch scripts can tell malformed input from out-of-regime input.

* ``certify P Q [--format json|text]``   parity certificate for one pair
* ``enumerate --max N [--format csv|json] [--out PATH]``  record table
* ``hilbert A B V``                      one Hilbert symbol (V prime or inf)
* ``graph-check PATH [--frobenius W]``   validate a graph file and report
                                         the local-point criterion

JSON and CSV speak the fixed record schema below; the CSV column order is
frozen and list-valued cells join their items with semicolons.  ``enumerate``
sieves its table in one pass and certifies the already-checked pairs in
(p, q) order, so no pair is checked twice, the class number h(-4p) is
computed once per prime p, and the algebra {p, q} once per certificate.
Rows are written as they are certified: an integrity check failing mid-table
raises after stdout may hold a prefix, but leaves no partial ``--out`` file.

``certify`` and ``hilbert`` refuse inputs beyond a desk-scale budget
(``_MAX_CERTIFY_PRIME``, ``_MAX_HILBERT_PRIME``) with exit 1 before any
trial division, instead of running for minutes.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import stat
import sys
from dataclasses import dataclass, fields
from typing import Iterator, TextIO

from .mumford_graph import INVOLUTION_NAMES, GraphParseError, has_local_point, parse_graph, validate
from .ntheory import INFINITY, Place, hilbert_symbol
from .parity import (
    HyperellipticFlag,
    ParityCertificate,
    SieveReport,
    _certify_table,
    certify,
    enumerate_admissible,
    hyperelliptic_sieve,
)
from .shimura import AdmissibilityRejection

__all__ = ["OutputRecord", "build_parser", "main", "entrypoint"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REJECTED = 2


@dataclass(frozen=True)
class OutputRecord:
    """One certified pair in wire form; field order is the CSV order."""

    p: int
    q: int
    disc: int
    g_VB: int
    e_p: int
    g_quotient: int
    deficient_places: list[str]
    verdict: str
    hyperelliptic_flag: str
    assumptions: list[str]

    @classmethod
    def from_certificate(cls, cert: ParityCertificate, sieve: SieveReport) -> "OutputRecord":
        return cls(
            p=cert.pair.p,
            q=cert.pair.q,
            disc=cert.pair.disc,
            g_VB=cert.genus.g_VB,
            e_p=cert.genus.e_p,
            g_quotient=cert.genus.g_quotient,
            deficient_places=[str(v) for v in cert.ledger.deficient_places()],
            verdict=cert.verdict.value,
            hyperelliptic_flag=sieve.flag.value,
            assumptions=list(cert.assumptions),
        )

    def to_json(self) -> str:
        return json.dumps({name: getattr(self, name) for name in CSV_HEADER}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "OutputRecord":
        data = json.loads(text)
        return cls(**{f.name: data[f.name] for f in fields(cls)})

    def csv_row(self) -> list[str]:
        row = []
        for name in CSV_HEADER:
            value = getattr(self, name)
            row.append(";".join(value) if isinstance(value, list) else str(value))
        return row


CSV_HEADER = [f.name for f in fields(OutputRecord)]


def _certificate_text(cert: ParityCertificate, flag: HyperellipticFlag) -> str:
    lines = [
        f"admissible pair: p={cert.pair.p} q={cert.pair.q} disc={cert.pair.disc}",
        f"covering curve genus: {cert.genus.g_VB}",
        f"involution fixed points: {cert.genus.e_p}",
        f"quotient genus: {cert.genus.g_quotient}",
        "local record:",
    ]
    for status in cert.ledger.entries():
        where = "other finite places" if status.place is None else f"place {status.place}"
        verdict = "deficient" if status.deficient else "has degree-1 class"
        lines.append(f"  {where}: {verdict} [{status.source.value}]")
    places = ", ".join(str(v) for v in cert.ledger.deficient_places()) or "none"
    lines.append(f"deficient places: {places}")
    lines.append(f"verdict: {cert.verdict.value}")
    lines.append(f"hyperelliptic flag: {flag.value}")
    lines.append("assumptions:")
    lines.extend(f"  - {a}" for a in cert.assumptions)
    return "\n".join(lines)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 instead of argparse's exit 2
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="alquot", description="local points and jacobian parity "
                     "for Atkin-Lehner quotients of Shimura curves")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cert = sub.add_parser("certify", help="certify the parity verdict for one pair")
    p_cert.add_argument("p", type=int)
    p_cert.add_argument("q", type=int)
    p_cert.add_argument("--format", choices=("json", "text"), default="text")

    p_enum = sub.add_parser("enumerate", help="tabulate all admissible pairs up to a bound")
    p_enum.add_argument("--max", type=int, required=True, dest="bound")
    p_enum.add_argument("--format", choices=("csv", "json"), default="csv")
    p_enum.add_argument("--out", default=None, help="write to a file instead of stdout")

    p_hil = sub.add_parser("hilbert", help="evaluate one Hilbert symbol")
    p_hil.add_argument("a", type=int)
    p_hil.add_argument("b", type=int)
    p_hil.add_argument("v", help="a prime, or 'inf'")

    p_graph = sub.add_parser("graph-check", help="validate a graph file and test the "
                             "local-point criterion")
    p_graph.add_argument("path")
    p_graph.add_argument("--frobenius", choices=INVOLUTION_NAMES, default="wp")

    return parser


# Building the parser costs ~1 ms, over ten parses, so ``main`` reuses one.
_PARSER = build_parser()


# Desk-scale budgets, checked before any work.  ``certify`` proves p and q
# by trial division and counts h(-4p) in O(p) steps, ~2 s at p = 10^8;
# ``hilbert`` proves its place by trial division, ~0.1 s at 10^12.
_MAX_CERTIFY_PRIME = 10**8
_MAX_HILBERT_PRIME = 10**12


def _cmd_certify(args: argparse.Namespace) -> int:
    if max(args.p, args.q) > _MAX_CERTIFY_PRIME:
        print("error: certify: p and q must be at most 10^8", file=sys.stderr)
        return EXIT_USAGE
    result = certify(args.p, args.q)
    if isinstance(result, AdmissibilityRejection):
        if args.format == "json":
            print(json.dumps({"p": result.p, "q": result.q, "rejected": result.reason}, indent=2))
        else:
            print(f"rejected: {result.reason}")
        return EXIT_REJECTED
    report = hyperelliptic_sieve([result.pair])[0]
    if args.format == "json":
        print(OutputRecord.from_certificate(result, report).to_json())
    else:
        print(_certificate_text(result, report.flag))
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    try:
        pairs = enumerate_admissible(args.bound)
    except ValueError as exc:
        print(f"error: --max: {exc}", file=sys.stderr)
        return EXIT_USAGE
    records = map(OutputRecord.from_certificate, _certify_table(pairs), hyperelliptic_sieve(pairs))
    try:
        with _output(args.out) as handle:
            if args.format == "json":
                separator = "[\n  "  # json.dumps(table, indent=2), record by record
                for record in records:
                    handle.write(separator + record.to_json().replace("\n", "\n  "))
                    separator = ",\n  "
                handle.write("[]\n" if separator == "[\n  " else "\n]\n")
            else:
                writer = csv.writer(handle, lineterminator="\n")
                writer.writerow(CSV_HEADER)
                writer.writerows(record.csv_row() for record in records)
    except OSError as exc:
        print(f"error: cannot write {'stdout' if args.out is None else args.out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """Yield stdout when ``path`` is None, else a new file beside ``path``
    that is renamed onto it on success, so a failed write leaves an existing
    file as it was and no partial file behind.  A symbolic link is followed
    to its target, and a target that is not a regular file (``/dev/null``, a
    pipe) is written in place, since replacing it would destroy it.  A
    replaced file's permission bits carry over to the new file."""
    if path is None:
        yield sys.stdout
        return
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as handle:
            yield handle
        return
    temp = f"{path}.{os.urandom(4).hex()}.tmp"
    handle = open(temp, "x", encoding="utf-8")
    try:
        with handle:
            yield handle
        if os.path.exists(path):
            os.chmod(temp, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise


def _cmd_hilbert(args: argparse.Namespace) -> int:
    if args.v != "inf":
        try:
            prime = int(args.v)
        except ValueError:
            print(f"error: place must be a prime or 'inf', got {args.v!r}", file=sys.stderr)
            return EXIT_USAGE
        if prime > _MAX_HILBERT_PRIME:
            print("error: place must be at most 10^12", file=sys.stderr)
            return EXIT_USAGE
    try:  # Place rejects a composite with "<n> is not prime"
        place = INFINITY if args.v == "inf" else Place(prime)
        value = hilbert_symbol(args.a, args.b, place)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"{value:+d}")
    return EXIT_OK


def _cmd_graph_check(args: argparse.Namespace) -> int:
    try:
        with open(args.path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        graph = parse_graph(text)
    except GraphParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    violations = validate(graph)
    if violations:
        for violation in violations:
            print(f"violation: {violation}")
    else:
        print("violations: none")
    found, witness = has_local_point(graph, args.frobenius)
    if found:
        print(f"local point: yes, witness {witness}")
    else:
        print("local point: no")
    return EXIT_OK


_HANDLERS = {
    "certify": _cmd_certify,
    "enumerate": _cmd_enumerate,
    "hilbert": _cmd_hilbert,
    "graph-check": _cmd_graph_check,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return _HANDLERS[args.command](args)


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
