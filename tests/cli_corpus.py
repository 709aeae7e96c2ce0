"""Argument vectors that ``alquot.cli.main`` must treat exactly as a full
parse of the whole parser tree would, and that slow reference.

``main`` hands a command's arguments straight to the command's own parser;
``reference`` parses every argv with ``_PARSER.parse_args`` and then calls
the handler the namespace names.  ``test_cli.py`` compares the two on each
argv below.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

# "{graph}" is a valid two-edge graph file, "{out}" a path to write
CORPUS = [
    [],
    ["-h"],
    ["--help"],
    ["bogus"],
    ["bogus", "5", "17"],
    ["Certify", "5", "17"],
    ["--", "certify", "5", "17"],
    ["--format", "json", "certify", "5", "17"],
    ["certify", "5", "17"],
    ["certify", "5", "17", "--format", "json"],
    ["certify", "5", "17", "--format=json"],
    ["certify", "5", "17", "--form", "json"],
    ["certify", "5", "17", "--format", "json", "--format", "text"],
    ["certify", "--format", "json", "5", "17"],
    ["certify", "--", "5", "17"],
    ["certify", "5", "--", "17"],
    ["certify", "5", "17", "--"],
    ["certify", "--", "5", "17", "--format", "json"],
    ["certify", "5", "17", "extra"],
    ["certify", "5", "17", "--", "extra"],
    ["certify", "5"],
    ["certify"],
    ["certify", "five", "17"],
    ["certify", "-5", "17"],
    ["certify", "5", "17", "--format", "xml"],
    ["certify", "5", "17", "--format"],
    ["certify", "5", "17", "--bogus"],
    ["certify", "7", "17"],
    ["certify", "7", "17", "--format", "json"],
    ["certify", "29", "17", "--format", "json"],
    ["certify", "-h"],
    ["certify", "5", "17", "--help"],
    ["enumerate", "--max", "50"],
    ["enumerate", "--max", "50", "--format", "json"],
    ["enumerate", "--max=30", "--format=json"],
    ["enumerate", "--max", "30", "--max", "50"],
    ["enumerate"],
    ["enumerate", "--format", "json"],
    ["enumerate", "--max", "50", "--out"],
    ["enumerate", "--max", "30", "--out", "{out}"],
    ["enumerate", "--max", "-3"],
    ["enumerate", "--max", "50", "extra"],
    ["enumerate", "--max", "50", "--", "extra"],
    ["enumerate", "-h"],
    ["hilbert", "-1", "-85", "5"],
    ["hilbert", "-1", "-85", "inf"],
    ["hilbert", "--", "-1", "-85", "5"],
    ["hilbert", "-1", "-85", "--", "5"],
    ["hilbert", "3", "5", "9"],
    ["hilbert", "3", "5", "x"],
    ["hilbert", "1", "2", "3", "4"],
    ["hilbert", "1", "2"],
    ["hilbert", "-h"],
    ["graph-check", "{graph}"],
    ["graph-check", "{graph}", "--frobenius", "wq"],
    ["graph-check", "--frobenius=wpq", "{graph}"],
    ["graph-check", "{graph}", "--frobenius", "zz"],
    ["graph-check"],
    ["graph-check", "-h"],
]

TWO_EDGE_GRAPH = "v a even\nv b odd\ne e1 a b 2\ninv wp e1 ~e1\ninv wq\ninv wpq e1 ~e1\n"


def fill(argv: list[str], directory: Path) -> list[str]:
    """``argv`` with its placeholders filled in under ``directory``."""
    graph = directory / "two_edge.graph"
    graph.write_text(TWO_EDGE_GRAPH, encoding="utf-8")
    paths = {"{graph}": str(graph), "{out}": str(directory / "table.csv")}
    return [paths.get(arg, arg) for arg in argv]


def reference(argv: list[str]) -> int:
    """The whole tree parses ``argv``, then its handler runs."""
    from alquot import cli

    try:
        args = cli._PARSER.parse_args(argv)
    except cli._UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return cli.EXIT_USAGE
    return cli._HANDLERS[args.command](args)


def outcome(run, argv: list[str]) -> tuple[object, str, str]:
    """The return value or ``SystemExit`` code, stdout and stderr of ``run(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue()

