import ast
import contextlib
import errno
import hashlib
import json
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import alquot.cli
import alquot.ntheory
import alquot.parity
import alquot.quadforms
import alquot.shimura
from alquot.cli import CSV_HEADER, OutputRecord, main
from alquot.mumford_graph import parse_graph, serialize_graph
from alquot.parity import STANDING_ASSUMPTIONS

ASSUMPTION_CELL = ";".join(STANDING_ASSUMPTIONS)

CERTIFY_5_17_JSON = {
    "p": 5,
    "q": 17,
    "disc": 85,
    "g_VB": 5,
    "e_p": 4,
    "g_quotient": 2,
    "deficient_places": ["17"],
    "verdict": "odd",
    "hyperelliptic_flag": "possibly_hyperelliptic",
    "assumptions": list(STANDING_ASSUMPTIONS),
}

ENUMERATE_30_CSV = (
    "p,q,disc,g_VB,e_p,g_quotient,deficient_places,verdict,hyperelliptic_flag,assumptions\n"
    f"5,17,85,5,4,2,17,odd,possibly_hyperelliptic,{ASSUMPTION_CELL}\n"
    f"29,17,493,37,12,16,17,odd,not_hyperelliptic,{ASSUMPTION_CELL}\n"
)

# sha256 of ``enumerate --max 1000`` (453 rows; the CSV is 207,689 bytes),
# whose p-runs share one class number per p
ENUMERATE_1000_SHA256 = {
    "csv": "8b24ab184e6ef2d28bd043464cbc5b79f15ad5fc61b6abc2393aa5ba2779f9ff",
    "json": "d66ff4427bc552d8c59438a18a6affb210b1c7f539514595b807a05786448e3c",
}

GRAPH_OK = """v a even
v b odd
e e1 a b 2
inv wp e1 ~e1
inv wq
inv wpq e1 ~e1
"""


def test_certify_json_golden(capsys):
    assert main(["certify", "5", "17", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == CERTIFY_5_17_JSON
    # key order is the frozen schema order
    assert list(json.loads(out)) == CSV_HEADER


def test_certify_json_roundtrip(capsys):
    assert main(["certify", "29", "17", "--format", "json"]) == 0
    out = capsys.readouterr().out
    record = OutputRecord.from_json(out)
    assert record.to_json() == out.rstrip("\n")
    assert record.g_quotient == 16


def test_certify_text(capsys):
    assert main(["certify", "5", "17"]) == 0
    out = capsys.readouterr().out
    assert "verdict: odd" in out
    assert "deficient places: 17" in out


def test_certify_rejection_exit_2(capsys):
    assert main(["certify", "7", "17"]) == 2
    assert "p ≢ 5 mod 24" in capsys.readouterr().out


def test_certify_parse_error_exit_1(capsys):
    assert main(["certify", "5", "x"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_enumerate_csv_golden(capsys):
    assert main(["enumerate", "--max", "30"]) == 0
    assert capsys.readouterr().out == ENUMERATE_30_CSV


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_enumerate_empty_table_has_header(fmt, capsys):
    assert main(["enumerate", "--max", "4", "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert out == {"csv": ",".join(CSV_HEADER) + "\n", "json": "[]\n"}[fmt]


def test_enumerate_json(capsys):
    assert main(["enumerate", "--max", "30", "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert [(r["p"], r["q"]) for r in records] == [(5, 17), (29, 17)]
    assert all(r["verdict"] == "odd" for r in records)


def test_enumerate_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    assert main(["enumerate", "--max", "30", "--out", str(target)]) == 0
    assert target.read_text(encoding="utf-8") == ENUMERATE_30_CSV
    assert capsys.readouterr().out == ""


def test_enumerate_unwritable_out(tmp_path, capsys):
    bad = tmp_path / "missing-dir" / "table.csv"
    assert main(["enumerate", "--max", "30", "--out", str(bad)]) == 1
    assert "cannot write" in capsys.readouterr().err


class _FullStdout:
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_enumerate_unwritable_stdout(capsys):
    with contextlib.redirect_stdout(_FullStdout()):
        assert main(["enumerate", "--max", "30"]) == 1
    reason = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    assert capsys.readouterr().err == f"error: cannot write stdout: {reason}\n"


class _DiskFullFile:
    """Stands in for ``open``: writes part of the text, then fails."""

    def __init__(self, path, mode, encoding):
        self._handle = open(path, mode, encoding=encoding)

    def write(self, text):
        self._handle.write(text[: len(text) // 2])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()


def _failing_replace(src, dst):
    raise OSError(errno.EXDEV, os.strerror(errno.EXDEV))


@pytest.mark.parametrize("failing_step", ["write", "replace"])
def test_enumerate_failed_out_keeps_the_old_file(tmp_path, capsys, monkeypatch, failing_step):
    target = tmp_path / "table.csv"
    target.write_text("previous table\n", encoding="utf-8")
    if failing_step == "write":
        monkeypatch.setattr(alquot.cli, "open", _DiskFullFile, raising=False)
    else:
        monkeypatch.setattr(os, "replace", _failing_replace)
    assert main(["enumerate", "--max", "30", "--out", str(target)]) == 1
    assert "cannot write" in capsys.readouterr().err
    assert target.read_text(encoding="utf-8") == "previous table\n"
    assert list(tmp_path.iterdir()) == [target]


def test_enumerate_out_through_a_symlink_replaces_its_target(tmp_path, capsys):
    target = tmp_path / "table.csv"
    target.write_text("previous table\n", encoding="utf-8")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert main(["enumerate", "--max", "30", "--out", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_text(encoding="utf-8") == ENUMERATE_30_CSV
    assert sorted(tmp_path.iterdir()) == [link, target]


@pytest.mark.parametrize("mode", [0o600, 0o755], ids=oct)
def test_enumerate_out_keeps_the_target_permissions(tmp_path, capsys, mode):
    target = tmp_path / "table.csv"
    target.write_text("previous table\n", encoding="utf-8")
    target.chmod(mode)
    assert main(["enumerate", "--max", "30", "--out", str(target)]) == 0
    assert target.read_text(encoding="utf-8") == ENUMERATE_30_CSV
    assert stat.S_IMODE(target.stat().st_mode) == mode
    assert list(tmp_path.iterdir()) == [target]


def test_enumerate_out_to_a_device_writes_in_place(capsys):
    assert main(["enumerate", "--max", "30", "--out", os.devnull]) == 0
    assert capsys.readouterr().err == ""
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


@pytest.mark.parametrize("bound", [0, -1, 2**15])
def test_enumerate_bound_guard(bound, capsys):
    assert main(["enumerate", "--max", str(bound)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "2^15" in captured.err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_enumerate_integrity_failure_propagates(fmt, tmp_path, monkeypatch, capsys):
    genus, certified = alquot.parity._genus_quotient, []

    def broken_at_second(pair, B, h):
        certified.append(pair)
        if len(certified) == 2:
            raise ValueError("integrity check failed")
        return genus(pair, B, h)

    # the genus core holds the integrity checks, and both certificate paths
    # (for_pair and the enumerate table) run it through this name
    monkeypatch.setattr(alquot.parity, "_genus_quotient", broken_at_second)
    with pytest.raises(ValueError, match="integrity check failed"):
        main(["enumerate", "--max", "30", "--format", fmt])
    # rows are written as they are certified: stdout holds (5, 17) only
    out = capsys.readouterr().out
    first, second = {"csv": ("\n5,17,", "\n29,17,"), "json": ('"p": 5,', '"p": 29,')}[fmt]
    assert first in out and second not in out

    certified.clear()
    target = tmp_path / "table"
    target.write_text("previous table\n", encoding="utf-8")
    with pytest.raises(ValueError, match="integrity check failed"):
        main(["enumerate", "--max", "30", "--format", fmt, "--out", str(target)])
    assert target.read_text(encoding="utf-8") == "previous table\n"
    assert list(tmp_path.iterdir()) == [target]


@pytest.mark.parametrize("fmt", sorted(ENUMERATE_1000_SHA256))
def test_enumerate_1000_golden(fmt, tmp_path, capsys):
    assert main(["enumerate", "--max", "1000", "--format", fmt]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == ENUMERATE_1000_SHA256[fmt]
    target = tmp_path / "table"
    assert main(["enumerate", "--max", "1000", "--format", fmt, "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == out


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_enumerate_streams_its_table(fmt, tmp_path):
    # 4823 rows, 2.2 MB of CSV or 3.4 MB of JSON: holding the table whole
    # peaks at 7.8 (CSV) and 20.4 MB (JSON), writing it row by row below 2 MB
    tracemalloc.start()
    try:
        assert main(["enumerate", "--max", "4000", "--format", fmt, "--out", str(tmp_path / "t")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_enumerate_checks_each_candidate_once_and_sieves_once(monkeypatch, capsys):
    checked, sieved = [], []
    failure = alquot.shimura._admissibility_failure
    sieve = alquot.cli.hyperelliptic_sieve

    def counted_failure(p, q):
        checked.append((p, q))
        return failure(p, q)

    def counted_sieve(pairs):
        sieved.append(len(pairs))
        return sieve(pairs)

    monkeypatch.setattr(alquot.shimura, "_admissibility_failure", counted_failure)
    monkeypatch.setattr(alquot.cli, "hyperelliptic_sieve", counted_sieve)
    assert main(["enumerate", "--max", "200"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]

    def prime(n):
        return n > 1 and all(n % d for d in range(2, n))

    ps = [p for p in range(1, 201) if prime(p) and p % 24 == 5]
    qs = [q for q in range(1, 201) if prime(q) and q % 12 == 5]
    assert checked == [(p, q) for p in ps for q in qs]
    assert sieved == [len(rows)]


def _python(*args: str) -> subprocess.CompletedProcess:
    src = str(Path(alquot.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=False,
    )


def test_cli_import_does_not_load_numpy():
    done = _python("-c", "import sys, alquot.cli; print('numpy' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_oracle_and_certify_run_with_numpy_blocked(capsys):
    assert main(["certify", "5", "17"]) == 0
    expected = capsys.readouterr().out
    script = (
        "import sys; sys.modules['numpy'] = None\n"
        "from alquot.cli import main\n"
        "from alquot.ntheory import Place, hilbert_symbol_oracle\n"
        "print(hilbert_symbol_oracle(-1, -1, Place(2)))\n"
        "raise SystemExit(main(['certify', '5', '17']))\n"
    )
    done = _python("-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "-1\n" + expected


def test_package_imports_only_the_standard_library():
    allowed = sys.stdlib_module_names | {"alquot"}
    foreign = []
    for module in sorted(Path(alquot.__file__).resolve().parent.rglob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [(module.name, n) for n in names if n.split(".")[0] not in allowed]
    assert foreign == []


def test_module_invocation_matches_main(capsys):
    assert main(["certify", "5", "17", "--format", "json"]) == 0
    expected = capsys.readouterr().out
    done = _python("-m", "alquot.cli", "certify", "5", "17", "--format", "json")
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected


def test_hilbert(capsys):
    assert main(["hilbert", "-1", "-1", "inf"]) == 0
    assert capsys.readouterr().out == "-1\n"
    assert main(["hilbert", "-1", "-85", "5"]) == 0
    assert capsys.readouterr().out == "+1\n"
    assert main(["hilbert", "1", "7", "3"]) == 0
    assert capsys.readouterr().out == "+1\n"


def _forbid_trial_division(monkeypatch) -> None:
    def refuse(*args):
        raise AssertionError("trial division ran before the budget check")

    for function in (alquot.ntheory.is_prime, alquot.quadforms.class_number):
        for name, module in list(sys.modules.items()):
            if name.startswith("alquot") and getattr(module, function.__name__, None) is function:
                monkeypatch.setattr(module, function.__name__, refuse)


@pytest.mark.parametrize("p, q", [(10**8 + 1, 17), (5, 10**8 + 1), (10**20 + 39, 17)])
def test_certify_budget(p, q, monkeypatch, capsys):
    assert alquot.cli._MAX_CERTIFY_PRIME == 10**8
    _forbid_trial_division(monkeypatch)
    assert main(["certify", str(p), str(q)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: certify: p and q must be at most 10^8\n"


def test_certify_budget_admits_desk_scale_primes(capsys):
    # p near 10^7, and the largest pairs perfbench's certify_large draws
    # (p <= 2*10^5, q <= 10^7)
    assert main(["certify", "10000229", "29", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "odd"
    assert main(["certify", "199877", "9999749"]) == 0
    assert "verdict: odd" in capsys.readouterr().out


def test_certify_integrity_failure_propagates(monkeypatch):
    def broken(pair, B, h):
        raise ValueError("integrity check failed")

    monkeypatch.setattr(alquot.parity, "_genus_quotient", broken)
    with pytest.raises(ValueError, match="integrity check failed"):
        main(["certify", "5", "17"])


@pytest.mark.parametrize("v", [10**12 + 1, 10**20 + 39])
def test_hilbert_budget(v, monkeypatch, capsys):
    assert alquot.cli._MAX_HILBERT_PRIME == 10**12
    _forbid_trial_division(monkeypatch)
    assert main(["hilbert", "1", "1", str(v)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: place must be at most 10^12\n"


def test_hilbert_budget_admits_its_largest_primes(capsys):
    assert main(["hilbert", "-1", "-1", "999999999989"]) == 0  # the largest prime below 10^12
    assert capsys.readouterr().out == "+1\n"


def test_hilbert_rejects_composite_place(capsys):
    assert main(["hilbert", "3", "5", "6"]) == 1
    assert "not prime" in capsys.readouterr().err
    assert main(["hilbert", "0", "5", "3"]) == 1


def test_graph_check_yes(tmp_path, capsys):
    path = tmp_path / "g.graph"
    path.write_text(GRAPH_OK, encoding="utf-8")
    assert main(["graph-check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "violations: none" in out
    assert "local point: yes, witness e1" in out


def test_graph_check_no(tmp_path, capsys):
    path = tmp_path / "g.graph"
    path.write_text(GRAPH_OK.replace("e e1 a b 2", "e e1 a b 1"), encoding="utf-8")
    assert main(["graph-check", str(path)]) == 0
    assert "local point: no" in capsys.readouterr().out


def test_graph_check_reports_violations(tmp_path, capsys):
    path = tmp_path / "g.graph"
    path.write_text(GRAPH_OK.replace("inv wpq e1 ~e1", "inv wpq"), encoding="utf-8")
    assert main(["graph-check", str(path)]) == 0
    assert "violation:" in capsys.readouterr().out


def test_graph_check_parse_error(tmp_path, capsys):
    path = tmp_path / "g.graph"
    path.write_text("v a even\nboom\n", encoding="utf-8")
    assert main(["graph-check", str(path)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_graph_check_missing_file(capsys):
    assert main(["graph-check", "/nonexistent/graph.txt"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_graph_check_undecodable_file(tmp_path, capsys):
    path = tmp_path / "bad.graph"
    path.write_bytes(b"v a even\n\xff\n")
    assert main(["graph-check", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {path}: ")


def test_graph_file_roundtrip(tmp_path):
    g = parse_graph(GRAPH_OK)
    text = serialize_graph(g)
    assert parse_graph(text) == g
    assert serialize_graph(parse_graph(text)) == text


def test_unknown_command_exit_1(capsys):
    assert main(["frobnicate"]) == 1


@pytest.mark.parametrize("argv", [["certify", "5"], ["enumerate"], ["hilbert", "1", "2"]])
def test_missing_arguments_exit_1(argv):
    assert main(argv) == 1


def test_package_invocation_matches_main(capsys):
    assert main(["certify", "5", "17", "--format", "json"]) == 0
    expected = capsys.readouterr().out
    done = _python("-m", "alquot", "certify", "5", "17", "--format", "json")
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected


def test_hilbert_error_texts(capsys):
    assert main(["hilbert", "3", "5", "6"]) == 1
    assert capsys.readouterr().err == "error: 6 is not prime\n"
    assert main(["hilbert", "3", "5", "-5"]) == 1
    assert capsys.readouterr().err == "error: -5 is not prime\n"
    assert main(["hilbert", "3", "5", "x"]) == 1
    assert capsys.readouterr().err == "error: place must be a prime or 'inf', got 'x'\n"
    assert main(["hilbert", "0", "5", "inf"]) == 1
    assert capsys.readouterr().err == "error: hilbert symbol needs nonzero arguments\n"


def test_main_reuses_one_parser(monkeypatch, capsys):
    def no_parser():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(alquot.cli, "build_parser", no_parser)
    assert main(["certify", "5", "17"]) == 0
    assert "verdict: odd" in capsys.readouterr().out
    assert main(["certify", "5"]) == 1
    assert "usage error" in capsys.readouterr().err
    assert main(["certify", "5", "17", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "odd"
