"""Command-line front end.

Four subcommands with a stable contract: exit 0 on success, 1 on usage,
IO, or parse problems, 2 on domain rejections (inadmissible pairs), so
batch scripts can tell malformed input from out-of-regime input.

* ``certify P Q [--format json|text]``   parity certificate for one pair
* ``enumerate --max N [--format csv|json] [--out PATH]``  record table
* ``hilbert A B V``                      one Hilbert symbol (V prime or inf)
* ``graph-check PATH [--frobenius W]``   validate a graph file and report
                                         the local-point criterion; the
                                         only command that loads the
                                         graph layer, ``mumford_graph``

Each command loads only the modules it runs: the import loads none of
``mumford_graph``, ``json``, ``csv`` or ``array``.  JSON output (``certify
--format json`` and its rejection, the JSON table) loads ``json``, and the
CSV table ``csv``; ``array`` serves only the test oracle
``ntheory.hilbert_symbol_oracle``.

JSON and CSV speak the fixed record schema below; the CSV column order is
frozen and list-valued cells join their items with semicolons.  ``certify``
prints a record's JSON as the ``enumerate`` table holds it, but two spaces
shallower.  The ``certify`` text, ``certify --format json`` and both tables
read a certificate through one row function, ``_row``; ``OutputRecord`` is
the record's wire and parsed form.
``enumerate`` streams its table in (p, q) order, one row per admissible
pair, so memory does not grow with the table.  An integrity check failing
mid-table raises after stdout may hold a prefix, but leaves no partial
``--out`` file.

``main`` hands a command's arguments straight to that command's own
parser, the one ``_PARSER``'s subcommand action holds and would call; an
empty argv, help, an unknown command, or a leading option or ``--`` goes
through ``_PARSER`` whole.  ``_Parser.error`` keeps only argparse's
message, so a usage error reads the same whichever parser finds it.

``certify`` and ``hilbert`` refuse inputs beyond a desk-scale budget
(``_MAX_CERTIFY_PRIME``, ``_MAX_HILBERT_PRIME``) with exit 1 before any
trial division, instead of running for minutes.  A stdout that cannot
take the output, a reader that closed it early or a full disk, is an IO
problem too: ``entrypoint`` exits 1 with one ``error: cannot write
stdout`` line.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import stat
import sys
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from .ntheory import INFINITY, Place, _Value, hilbert_symbol
from .parity import ParityCertificate, _certify_table, _hyperelliptic_flag, certify
from .shimura import AdmissibilityRejection, _admissible_pairs

__all__ = ["OutputRecord", "build_parser", "main", "entrypoint"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REJECTED = 2


class OutputRecord(_Value):
    """One certified pair in wire form; field order is the CSV order."""

    __slots__ = _fields = ("p", "q", "disc", "g_VB", "e_p", "g_quotient", "deficient_places", "verdict",
                           "hyperelliptic_flag", "assumptions")

    def __init__(self, p: int, q: int, disc: int, g_VB: int, e_p: int, g_quotient: int,
                 deficient_places: list[str], verdict: str, hyperelliptic_flag: str,
                 assumptions: list[str]) -> None:
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "disc", disc)
        object.__setattr__(self, "g_VB", g_VB)
        object.__setattr__(self, "e_p", e_p)
        object.__setattr__(self, "g_quotient", g_quotient)
        object.__setattr__(self, "deficient_places", deficient_places)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "hyperelliptic_flag", hyperelliptic_flag)
        object.__setattr__(self, "assumptions", assumptions)

    @classmethod
    def from_certificate(cls, cert: ParityCertificate) -> "OutputRecord":
        *head, places, verdict, flag, cited = _row(cert)
        return cls(*head, list(places), verdict, flag, list(cited))

    def to_json(self) -> str:
        return _record_json(self._values())

    @classmethod
    def from_json(cls, text: str) -> "OutputRecord":
        import json

        data = json.loads(text)
        return cls(*[data[name] for name in cls._fields])

    def csv_row(self) -> list[str]:
        """Field values as CSV cells: list (or tuple) items joined by semicolons."""
        return [";".join(v) if isinstance(v, (list, tuple)) else str(v) for v in self._values()]


CSV_HEADER = list(OutputRecord._fields)


def _row(cert: ParityCertificate) -> tuple:
    """A certificate's record values in ``CSV_HEADER`` order, which every
    output reads: the list fields as tuples, the citations the
    certificate's own shared ``assumptions``."""
    pair, genus = cert.pair, cert.genus
    return (pair.p, pair.q, pair.disc, genus.g_VB, genus.e_p, genus.g_quotient,
            tuple([str(v) for v in cert.ledger.deficient_places()]), cert.verdict.value,
            _hyperelliptic_flag(pair).value, cert.assumptions)


def _certificate_text(cert: ParityCertificate) -> str:
    p, q, disc, g_VB, e_p, g_quotient, places, verdict, flag, cited = _row(cert)
    lines = [
        f"admissible pair: p={p} q={q} disc={disc}",
        f"covering curve genus: {g_VB}",
        f"involution fixed points: {e_p}",
        f"quotient genus: {g_quotient}",
        "local record:",
    ]
    for status in cert.ledger.entries():
        where = "other finite places" if status.place is None else f"place {status.place}"
        found = "deficient" if status.deficient else "has degree-1 class"
        lines.append(f"  {where}: {found} [{status.source.value}]")
    lines.append(f"deficient places: {', '.join(places) or 'none'}")
    lines.append(f"verdict: {verdict}")
    lines.append(f"hyperelliptic flag: {flag}")
    lines.append("assumptions:")
    lines.extend(f"  - {a}" for a in cited)
    return "\n".join(lines)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 instead of argparse's exit 2, with no prog or usage prefix
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="alquot", description="local points and jacobian parity "
                     "for Atkin-Lehner quotients of Shimura curves")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # each command's own parser, which ``main`` calls directly

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
    # mumford_graph.INVOLUTION_NAMES, stated here so the parser loads no graph code
    p_graph.add_argument("--frobenius", choices=("wp", "wq", "wpq"), default="wp")

    return parser


# Building the parser costs as much as many parses of one command's
# arguments, so ``main`` reuses one.
_PARSER = build_parser()


# Desk-scale budgets, checked before any work.  ``certify`` proves p and q
# by trial division and counts h(-4p) from square roots mod 4a;
# ``hilbert`` proves its place by trial division.  Both budgets refuse an
# input before any trial division, so a large one fails fast.
_MAX_CERTIFY_PRIME = 10**8
_MAX_HILBERT_PRIME = 10**12


def _cmd_certify(args: argparse.Namespace) -> int:
    if max(args.p, args.q) > _MAX_CERTIFY_PRIME:
        print("error: certify: p and q must be at most 10^8", file=sys.stderr)
        return EXIT_USAGE
    result = certify(args.p, args.q)
    if isinstance(result, AdmissibilityRejection):
        if args.format == "json":
            import json

            print(json.dumps({"p": result.p, "q": result.q, "rejected": result.reason}, indent=2))
        else:
            print(f"rejected: {result.reason}")
        return EXIT_REJECTED
    if args.format == "json":
        print(_record_json(_row(result)))
    else:
        print(_certificate_text(result))
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    try:
        pairs = _admissible_pairs(args.bound)
    except ValueError as exc:
        print(f"error: --max: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rows = map(_row, _certify_table(pairs))
    try:
        with _output(args.out) as handle:
            (_write_json if args.format == "json" else _write_csv)(handle, rows)
    except OSError as exc:
        print(f"error: cannot write {'stdout' if args.out is None else args.out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


class _Line:
    """A file for ``csv.writer`` whose ``write`` returns the line unwritten,
    so ``writerow`` returns the encoded row."""

    write = str


@functools.lru_cache(maxsize=16)  # a few values, so its memory is bounded
def _csv_tail(assumptions: tuple[str, ...]) -> str:
    """The last cell with its separator and line end, as it ends a longer
    row: every certificate cites the same assumptions, so it is encoded
    once per distinct value, by an encoder only a miss builds."""
    import csv

    return csv.writer(_Line, lineterminator="\n").writerow(["", ";".join(assumptions)])


def _write_csv(handle: TextIO, rows: Iterable[Sequence]) -> None:
    """The CSV table of ``_row`` values, byte for byte what
    ``csv.writer(handle, lineterminator="\\n")`` writes for the header and
    each row's ``OutputRecord.csv_row``.  The first nine cells are encoded
    per row, the ints as they are, and the last, about 40% of a row, is
    ``_csv_tail``.  The csv module encodes every cell, so its quoting rules
    apply to each; it loads here, as only this table needs it."""
    import csv

    encode = csv.writer(_Line, lineterminator="\n").writerow
    handle.write(encode(CSV_HEADER))
    for *ints, places, verdict, flag, cited in rows:
        handle.write(encode((*ints, ";".join(places), verdict, flag))[:-1] + _csv_tail(tuple(cited)))


@functools.cache  # one encoder, built by the first JSON output
def _string_encoder() -> Callable[[str], str]:
    """A string as ``json.dumps`` encodes it: ``encode`` of a str goes
    straight to the C encoder, with none of the indent machinery, which is
    pure Python.  json loads on the first call, so only JSON output loads
    it.  A writer binds the encoder once per record or table: an import
    statement per string made the JSON table 20-35% slower."""
    import json

    return json.JSONEncoder().encode


def _json_strings(items: Sequence[str], encode: Callable[[str], str]) -> str:  # a list field
    return "[\n      " + ",\n      ".join(map(encode, items)) + "\n    ]" if items else "[]"


# The record up to its last field: the int fields fill %d, the others %s.
# The field names are identifiers, which JSON encodes quoted as they are.
_JSON_HEAD = "{" + "".join(f'\n    "{name}": %d,' for name in CSV_HEADER[:6])
_JSON_HEAD += "".join(f'\n    "{name}": %s,' for name in CSV_HEADER[6:-1])


@functools.lru_cache(maxsize=16)  # a few values, so its memory is bounded
def _json_tail(assumptions: tuple[str, ...]) -> str:
    """The last field with the record's closing brace: every certificate
    cites the same assumptions, so it is encoded once per distinct value."""
    return f'\n    "{CSV_HEADER[-1]}": {_json_strings(assumptions, _string_encoder())}\n  }}'


def _json_member(row: Sequence, encode: Callable[[str], str]) -> str:
    """The one JSON encoder of a record's values: the record as a member of
    the table, byte for byte what ``json.dumps(..., indent=2)`` writes for
    it one level deep, without the json module's pure-Python indenter.
    ``encode`` is ``_string_encoder()``."""
    *ints, places, verdict, flag, cited = row
    head = _JSON_HEAD % (*ints, _json_strings(places, encode), encode(verdict), encode(flag))
    return head + _json_tail(tuple(cited))


def _record_json(row: Sequence) -> str:
    """A record's JSON as ``certify`` prints it: the table's text, two
    spaces shallower, as a JSON string holds no raw newline."""
    return _json_member(row, _string_encoder()).replace("\n  ", "\n")


def _write_json(handle: TextIO, rows: Iterable[Sequence]) -> None:
    """The JSON table of ``_row`` values, byte for byte ``json.dumps`` of
    the list of the records' fields with ``indent=2``, and a line end."""
    encode = _string_encoder()
    separator = "[\n  "
    for row in rows:
        handle.write(separator + _json_member(row, encode))
        separator = ",\n  "
    handle.write("[]\n" if separator == "[\n  " else "\n]\n")


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
    from .mumford_graph import GraphParseError, has_local_point, parse_graph, validate

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
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _HANDLERS else None
    try:  # a command's own parser reads its arguments, as _PARSER would hand them over
        args = _PARSER.commands[command].parse_args(argv[1:]) if command else _PARSER.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return _HANDLERS[command or args.command](args)


def entrypoint() -> None:
    """``main`` as a process: stdout is flushed here, so a stdout that
    cannot take the output (a reader that closed the pipe, a full disk) is
    an IO problem, exit 1 with one error line."""
    try:
        code = main()
        sys.stdout.flush()
    except OSError as exc:  # main reports its own --out and graph-check reads
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        # Python flushes stdout again at exit; pointed at the null device,
        # that flush cannot fail (the signal module docs' SIGPIPE note)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()
