import argparse
import ast
import contextlib
import csv
import errno
import hashlib
import io
import itertools
import json
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import alquot.cli
import alquot.mumford_graph
import alquot.ntheory
import alquot.parity
import alquot.quadforms
import alquot.quaternion
import alquot.shimura
import cli_corpus
from alquot.cli import CSV_HEADER, OutputRecord, main
from alquot.mumford_graph import parse_graph, serialize_graph
from alquot.parity import STANDING_ASSUMPTIONS, _certify_table, enumerate_admissible
from test_parity import _count_calls

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

# certify's default text output, byte for byte: the local record names
# the symbolic entry "other finite places" and the others by their place
_ASSUMPTIONS_TEXT = """assumptions:
  - parity criterion: the jacobian verdict is odd exactly when the deficient-place count is odd
  - degree-2 rational divisor classes exist on the covering curve over every completion of Q
  - degree-1 rational divisor classes exist on the covering curve over Q_l for finite l prime to the discriminant
  - the quotient curve acquires a degree-1 rational divisor class over Q_p at its own prime via p-adic uniformization
"""

CERTIFY_TEXT = {
    (5, 17): """admissible pair: p=5 q=17 disc=85
covering curve genus: 5
involution fixed points: 4
quotient genus: 2
local record:
  place inf: has degree-1 class [real-splitting]
  place 5: has degree-1 class [own-prime-uniformization]
  place 17: deficient [interchange-criterion]
  other finite places: has degree-1 class [good-reduction-fact]
deficient places: 17
verdict: odd
hyperelliptic flag: possibly_hyperelliptic
""" + _ASSUMPTIONS_TEXT,
    (29, 17): """admissible pair: p=29 q=17 disc=493
covering curve genus: 37
involution fixed points: 12
quotient genus: 16
local record:
  place inf: has degree-1 class [real-splitting]
  place 29: has degree-1 class [own-prime-uniformization]
  place 17: deficient [interchange-criterion]
  other finite places: has degree-1 class [good-reduction-fact]
deficient places: 17
verdict: odd
hyperelliptic flag: not_hyperelliptic
""" + _ASSUMPTIONS_TEXT,
    (10000229, 29): """admissible pair: p=10000229 q=29 disc=290006641
covering curve genus: 23333865
involution fixed points: 6300
quotient genus: 11665358
local record:
  place inf: has degree-1 class [real-splitting]
  place 10000229: has degree-1 class [own-prime-uniformization]
  place 29: deficient [interchange-criterion]
  other finite places: has degree-1 class [good-reduction-fact]
deficient places: 29
verdict: odd
hyperelliptic flag: not_hyperelliptic
""" + _ASSUMPTIONS_TEXT,
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

# the table of perfbench's enumerate workload (2227 rows)
ENUMERATE_2500_SHA256 = {
    "csv": "4f85b299f9c6ed2244ac137519a5e2a123448ac48f45fd8a2ff8b86966320f8b",
    "json": "9a4697139a08b2e8ffed49828bf19ab90c6c84df6a982430b30a0fd2b0c52dec",
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
    assert out == json.dumps(_fields(record), indent=2) + "\n"
    assert record.g_quotient == 16


@pytest.mark.parametrize("p, q", sorted(CERTIFY_TEXT))
def test_certify_text(p, q, capsys):
    assert main(["certify", str(p), str(q)]) == 0
    assert capsys.readouterr() == (CERTIFY_TEXT[p, q], "")


def test_certify_rejection_exit_2(capsys):
    assert main(["certify", "7", "17"]) == 2
    assert capsys.readouterr() == ("rejected: p ≢ 5 mod 24\n", "")


def test_certify_json_rejection_exit_2(capsys):
    assert main(["certify", "7", "17", "--format", "json"]) == 2
    rejected = {"p": 7, "q": 17, "rejected": alquot.shimura.check_admissible(7, 17).reason}
    assert capsys.readouterr().out == json.dumps(rejected, indent=2) + "\n"


def test_certify_parse_error_exit_1(capsys):
    assert main(["certify", "5", "x"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_enumerate_csv_golden(capsys):
    assert main(["enumerate", "--max", "30"]) == 0
    assert capsys.readouterr().out == ENUMERATE_30_CSV


@pytest.mark.parametrize("bound", [17, 16, 1])
def test_enumerate_max_is_inclusive(bound, capsys):
    # (5, 17) is the least admissible pair: --max 17 holds it, --max 16 and
    # --max 1 hold the header alone
    assert main(["enumerate", "--max", str(bound)]) == 0
    header, row = ENUMERATE_30_CSV.splitlines(keepends=True)[:2]
    assert capsys.readouterr() == (header + row if bound == 17 else header, "")


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
    genus_VB, certified = alquot.parity._genus_VB, []

    def broken_at_second(p, q, *factors):
        certified.append((p, q))
        if len(certified) == 2:
            raise ValueError("integrity check failed")
        return genus_VB(p, q, *factors)

    # every certificate runs the integrity check of g_VB, and both
    # certificate paths (for_pair and the enumerate table) run it through
    # this name
    monkeypatch.setattr(alquot.parity, "_genus_VB", broken_at_second)
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


@pytest.mark.parametrize("fmt", sorted(ENUMERATE_2500_SHA256))
def test_enumerate_2500_golden(fmt, capsys):
    assert main(["enumerate", "--max", "2500", "--format", fmt]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == ENUMERATE_2500_SHA256[fmt]


def test_enumerate_csv_encodes_each_assumptions_value_once(monkeypatch, capsys):
    # rows citing two assumption lists in turn, one of which the csv
    # module must quote: a writer that reuses the first row's cell fails
    cited = [STANDING_ASSUMPTIONS, ['a "quoted", fact', "over\ntwo lines"]]
    row = alquot.cli._row
    turn = itertools.count()

    def alternating(cert):
        return (*row(cert)[:-1], cited[next(turn) % 2])

    monkeypatch.setattr(alquot.cli, "_row", alternating)
    assert main(["enumerate", "--max", "200"]) == 0
    out = capsys.readouterr().out
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    certificates = _certify_table(enumerate_admissible(200))
    records = (OutputRecord(*row(c)[:-1], cited[i % 2]) for i, c in enumerate(certificates))
    writer.writerows(record.csv_row() for record in records)
    assert out == expected.getvalue()
    assert min(out.count(',"a ""quoted"", fact;over\ntwo lines"\n'), out.count(f",{ASSUMPTION_CELL}\n")) > 2


def test_csv_writer_memo_is_bounded_and_exact():
    # twenty distinct tuples, more than the memo holds, some of which the
    # csv module must quote: every row is what csv.writer writes for it
    cited = [(f"fact {i}", 'a "quoted", fact' if i % 3 else "plain", "two\nlines" * (i % 2)) for i in range(20)]
    records = [
        OutputRecord(5, 17 + i, 85, 5, 4, 2, ("17",), "odd", "possibly_hyperelliptic", assumptions)
        for i, assumptions in enumerate(cited * 2)
    ]
    out = io.StringIO()
    alquot.cli._write_csv(out, [record._values() for record in records])
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(record.csv_row() for record in records)
    assert out.getvalue() == expected.getvalue()
    assert alquot.cli._csv_tail.cache_info().currsize <= 16


def test_enumerate_csv_and_json_tables_agree(capsys):
    assert main(["enumerate", "--max", "500", "--format", "json"]) == 0
    records = [OutputRecord.from_json(json.dumps(obj)) for obj in json.loads(capsys.readouterr().out)]
    assert main(["enumerate", "--max", "500"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out, newline="")))
    assert len(records) > 100
    assert rows == [CSV_HEADER] + [record.csv_row() for record in records]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_enumerate_builds_no_output_record(fmt, monkeypatch, capsys):
    # the tables are written from _row values, not from a record per row
    assert main(["enumerate", "--max", "200", "--format", fmt]) == 0
    unpatched = capsys.readouterr().out

    def refuse(self, *args, **kwargs):
        raise AssertionError("enumerate built an OutputRecord")

    monkeypatch.setattr(OutputRecord, "__init__", refuse)
    assert main(["enumerate", "--max", "200", "--format", fmt]) == 0
    assert capsys.readouterr().out == unpatched
    assert unpatched.count("odd") > 10


def test_record_is_the_row_with_lists():
    # from_certificate and the tables read one row function; the row cites
    # the certificates' shared assumptions, not a copy
    certificates = list(_certify_table(enumerate_admissible(500)))
    assert len(certificates) > 100
    for cert in certificates:
        row = alquot.cli._row(cert)
        values = OutputRecord.from_certificate(cert)._values()
        assert values == (*row[:6], list(row[6]), *row[7:9], list(row[9]))
        assert type(row[6]) is tuple and row[-1] is STANDING_ASSUMPTIONS


def _fields(record: OutputRecord) -> dict:
    return {n: getattr(record, n) for n in CSV_HEADER}


def _json_table(records) -> str:
    """The JSON table as the json module writes it whole, from the fields:
    the reference."""
    return json.dumps([_fields(r) for r in records], indent=2) + "\n"


def _deeper(text: str) -> str:
    """A certify output as a member of the JSON table: two spaces deeper."""
    return "  " + text[:-1].replace("\n", "\n  ")


def test_certify_prints_its_record_as_the_table_holds_it(capsys):
    # certify prints json.dumps of the record's fields, and the table is the
    # certify outputs two spaces deeper, for every pair of the table
    assert main(["enumerate", "--max", "200", "--format", "json"]) == 0
    table = capsys.readouterr().out
    outputs = []
    for fields in json.loads(table):
        assert main(["certify", str(fields["p"]), str(fields["q"]), "--format", "json"]) == 0
        outputs.append(capsys.readouterr().out)
        assert outputs[-1] == json.dumps(fields, indent=2) + "\n"
    assert len(outputs) > 10
    assert table == "[\n" + ",\n".join(map(_deeper, outputs)) + "\n]\n"
    # and for a pair beyond the tables of the tests
    assert main(["certify", "10000229", "29", "--format", "json"]) == 0
    out = capsys.readouterr().out
    record = OutputRecord.from_json(out)
    assert out == json.dumps(_fields(record), indent=2) + "\n"
    table = io.StringIO()
    alquot.cli._write_json(table, [record._values()])
    assert table.getvalue() == "[\n" + _deeper(out) + "\n]\n"


@pytest.mark.parametrize("bound", [4, 30, 500])
def test_enumerate_json_is_what_json_dumps_writes(bound, capsys):
    # 4 gives the empty table
    assert main(["enumerate", "--max", str(bound), "--format", "json"]) == 0
    records = map(OutputRecord.from_certificate, _certify_table(enumerate_admissible(bound)))
    assert capsys.readouterr().out == _json_table(records)


TEXT = st.text()


@settings(max_examples=300, deadline=None)
@given(TEXT)
@example('a "quoted" fact')
@example("back\\slash\tand\ncontrol\x00\x1f\x7f")
@example("p ≢ 5 mod 24")
@example("\u2028\ud800\U0001f600")  # a lone surrogate, as json.dumps escapes it
def test_json_string_encoder_is_json_dumps(text):
    # the encoder every JSON writer binds
    assert alquot.cli._string_encoder()(text) == json.dumps(text)


@settings(max_examples=100, deadline=None)
@given(st.lists(TEXT, max_size=3), TEXT, TEXT, st.lists(st.lists(TEXT, max_size=3), min_size=1, max_size=3))
def test_json_writer_is_json_dumps_on_arbitrary_text(places, verdict, flag, cited):
    # the writer's string fields carry any text, and its memoized last field
    # any number of distinct lists
    records = [
        OutputRecord(5, 17 + i, 85, -1, 2**70, 0, places, verdict, flag, assumptions)
        for i, assumptions in enumerate(cited * 2)
    ]
    out = io.StringIO()
    alquot.cli._write_json(out, [record._values() for record in records])
    assert out.getvalue() == _json_table(records)
    assert [record.to_json() for record in records] == [json.dumps(_fields(r), indent=2) for r in records]


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


def test_enumerate_memory_does_not_grow_with_the_table(tmp_path):
    # 453 rows at --max 1000, 3172 at --max 3000: holding the pair list
    # grows the peak by about 0.3 MB, and the sieve reports with it by about
    # 0.9 MB; one pass per pair grows it by under 0.05 MB
    peaks = []
    for bound in ("1000", "3000"):
        tracemalloc.start()
        try:
            assert main(["enumerate", "--max", bound, "--out", str(tmp_path / "t")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 150_000


def test_enumerate_checks_each_candidate_once_and_proves_each_prime_once(monkeypatch, capsys):
    # enumerate splits the rules of check_admissible: the per-prime rule
    # builds the candidate lists, the per-pair rule decides each pair
    prime_rule = _count_calls(monkeypatch, alquot.shimura._prime_failure)
    pair_rule = _count_calls(monkeypatch, alquot.shimura._pair_failure)
    # the rules prove primes through the shimura binding, and Place through
    # the ntheory binding alone
    rule_proofs, place_proofs, checked = [], [], []

    def recording(prove, proofs):
        def counted_proof(n):
            proofs.append(n)
            return prove(n)

        return counted_proof

    check = alquot.shimura.AdmissiblePair.__init__

    def checked_init(pair, *args):
        checked.append(args)
        check(pair, *args)

    def refuse(*args):
        raise AssertionError("enumerate computed a sieve report")

    monkeypatch.setattr(alquot.shimura, "is_prime", recording(alquot.shimura.is_prime, rule_proofs))
    monkeypatch.setattr(alquot.ntheory, "is_prime", recording(alquot.ntheory.is_prime, place_proofs))
    # the table admits its pairs without the checking constructor
    monkeypatch.setattr(alquot.shimura.AdmissiblePair, "__init__", checked_init)
    monkeypatch.setattr(alquot.parity, "hyperelliptic_sieve", refuse)
    monkeypatch.setattr(alquot.parity, "_eichler_formula", refuse)
    monkeypatch.setattr(alquot.quaternion, "_eichler_formula", refuse)
    assert main(["enumerate", "--max", "200"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]

    def prime(n):
        return n > 1 and all(n % d for d in range(2, n))

    # the candidates for p and for q are the classes 5 mod 24 and 5 mod 12
    assert prime_rule == [("p", n) for n in range(5, 201, 24)] + [("q", n) for n in range(5, 201, 12)]
    ps = [p for p in range(1, 201) if prime(p) and p % 24 == 5]
    qs = [q for q in range(1, 201) if prime(q) and q % 12 == 5]
    assert pair_rule == [(p, q) for p in ps for q in qs]
    assert checked == []
    # each candidate is proven by the per-prime rule alone, and no prime
    # once per candidate pair; the table's Places trust those proofs
    assert rule_proofs == [n for _, n in prime_rule]
    table_primes = {int(n) for row in rows for n in row[:2]}
    assert len(rows) > len(table_primes) > 5
    assert place_proofs == []


def _env() -> dict[str, str]:  # this environment, with alquot's sources on the path
    src = str(Path(alquot.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=_env(), check=False)


# modules the CLI never needs: numpy, and dataclasses with the inspect
# module it imports, whose import and class decorations cost ~6 ms; and
# json, csv and array, which only some commands need (see the next tests)
_NOT_ON_THE_CLI_PATH = ("numpy", "dataclasses", "inspect", "json", "csv", "array")


def test_cli_import_does_not_load_numpy():
    # neither the import nor a certify run loads any of them; some site
    # hooks load inspect before any import, so only new modules count
    script = (
        "import sys\n"
        f"names = set({_NOT_ON_THE_CLI_PATH!r}) - set(sys.modules)\n"
        "import alquot.cli\n"
        "imported = sorted(names & set(sys.modules))\n"
        "code = alquot.cli.main(['certify', '5', '17'])\n"
        "print(imported, sorted(names & set(sys.modules)), code)\n"
    )
    done = _python("-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout == CERTIFY_TEXT[5, 17] + "[] [] 0\n"


def test_only_graph_check_loads_the_graph_layer(tmp_path, capsys):
    graph = tmp_path / "g.graph"
    graph.write_text(GRAPH_OK, encoding="utf-8")
    commands = [
        ["certify", "5", "17"],
        ["hilbert", "-1", "-85", "5"],
        ["enumerate", "--max", "50", "--out", str(tmp_path / "table.csv")],
        ["graph-check", str(graph)],
    ]
    expected = ""
    for argv in commands:
        assert main(argv) == 0
        expected += capsys.readouterr().out
    assert expected.endswith("\n+1\nviolations: none\nlocal point: yes, witness e1\n")
    script = (
        "import sys, alquot.cli\n"
        "loaded = ['alquot.mumford_graph' in sys.modules]\n"
        f"for argv in {commands!r}:\n"
        "    assert alquot.cli.main(argv) == 0\n"
        "    loaded.append('alquot.mumford_graph' in sys.modules)\n"
        "print(loaded)\n"
    )
    done = _python("-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected + "[False, False, False, False, True]\n"


_LOADED_ON_USE = ("json", "csv", "array", "alquot.mumford_graph")


@pytest.mark.parametrize("argv, code, loaded", [
    ([], 0, []),
    (["certify", "5", "17"], 0, []),
    (["certify", "5", "17", "--format", "json"], 0, ["json"]),
    (["certify", "7", "17", "--format", "json"], 2, ["json"]),
    (["hilbert", "-1", "-85", "5"], 0, []),
    (["enumerate", "--max", "50"], 0, ["csv"]),
    (["enumerate", "--max", "50", "--format", "json"], 0, ["json"]),
    (["graph-check", "GRAPH"], 0, ["alquot.mumford_graph"]),
], ids=["import", "certify", "certify-json", "rejection-json", "hilbert", "enumerate-csv", "enumerate-json",
        "graph-check"])
def test_each_command_loads_only_the_modules_it_runs(argv, code, loaded, tmp_path):
    # one fresh process per command ([] is the import alone); a module
    # loaded before the import, as a site hook may do, counts for none
    graph = tmp_path / "g.graph"
    graph.write_text(GRAPH_OK, encoding="utf-8")
    argv = [str(graph) if arg == "GRAPH" else arg for arg in argv]
    script = (
        "import sys\n"
        f"names = set({_LOADED_ON_USE!r}) - set(sys.modules)\n"
        "import alquot.cli\n"
        f"code = alquot.cli.main({argv!r}) if {argv!r} else 0\n"
        "print((code, sorted(names), sorted(names & set(sys.modules))))\n"
    )
    done = _python("-c", script)
    assert done.returncode == 0, done.stderr
    returned, names, new = ast.literal_eval(done.stdout.splitlines()[-1])
    assert (returned, new) == (code, [name for name in names if name in loaded])


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["certify", "5", "17"],
    ["hilbert", "-1", "-85", "5"],
    ["graph-check", "GRAPH"],
    ["enumerate", "--max", "50"],
], ids=lambda argv: argv[0])
def test_a_closed_stdout_exits_1_with_one_error_line(argv, unbuffered, tmp_path):
    # the pipe's reader is gone before the command writes: buffered, the
    # first write fails at the flush, unbuffered at the first print
    graph = tmp_path / "g.graph"
    graph.write_text(GRAPH_OK, encoding="utf-8")
    argv = [str(graph) if arg == "GRAPH" else arg for arg in argv]
    env = _env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "alquot", *argv], stdout=write,
                              stderr=subprocess.PIPE, text=True, env=env, check=False)
    finally:
        os.close(write)
    reason = f"[Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}"
    assert (done.returncode, done.stderr) == (1, f"error: cannot write stdout: {reason}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["certify", "5", "17"],
    ["hilbert", "-1", "-85", "5"],
    ["enumerate", "--max", "50"],
    ["enumerate", "--max", "2500"],
], ids=["certify", "hilbert", "enumerate-50", "enumerate-2500"])
def test_a_full_stdout_exits_1_with_one_error_line(argv):
    # every write to /dev/full fails with ENOSPC: a short output at the last
    # flush, a table past the buffer's size mid-table, in _cmd_enumerate
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "alquot", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=_env(), check=False)
    reason = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    assert (done.returncode, done.stderr) == (1, f"error: cannot write stdout: {reason}\n")


def test_first_package_all_in_a_fresh_process_is_the_modules_lists():
    modules = ("ntheory", "quadforms", "quaternion", "shimura", "localpoints", "parity", "mumford_graph")
    expected = [name for module in modules for name in getattr(alquot, module).__all__]
    done = _python("-c", "import json, alquot; print(json.dumps(alquot.__all__))")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == expected


def test_star_import_and_attribute_access_load_the_graph_layer():
    script = (
        "from alquot import *\n"
        "print(parse_graph.__module__, INVOLUTION_NAMES)\n"
        "import alquot\n"
        "print(alquot.parse_graph is alquot.mumford_graph.parse_graph)\n"
    )
    done = _python("-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "alquot.mumford_graph ('wp', 'wq', 'wpq')\nTrue\n"
    done = _python("-c", "import alquot; graph = alquot.mumford_graph; print(alquot.parse_graph is graph.parse_graph)")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True\n"


def test_frobenius_choices_are_the_graph_layers_involutions():
    sub = next(a for a in alquot.cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    frobenius = next(a for a in sub.choices["graph-check"]._actions if a.dest == "frobenius")
    assert tuple(frobenius.choices) == alquot.mumford_graph.INVOLUTION_NAMES


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


@pytest.mark.parametrize("p, q", [(10**8 + 1, 17), (5, 10**8 + 1), (10**20 + 39, 17), (10**8, 17)])
def test_certify_budget(p, q, monkeypatch, capsys):
    assert alquot.cli._MAX_CERTIFY_PRIME == 10**8
    if max(p, q) == 10**8:  # the budget's edge is inside it: 10^8 is refused as composite
        assert main(["certify", str(p), str(q)]) == 2
        assert capsys.readouterr() == ("rejected: p is not prime\n", "")
        return
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
    def broken(p, q, *factors):
        raise ValueError("integrity check failed")

    monkeypatch.setattr(alquot.parity, "_genus_VB", broken)
    with pytest.raises(ValueError, match="integrity check failed"):
        main(["certify", "5", "17"])


@pytest.mark.parametrize("v", [10**12 + 1, 10**20 + 39, 10**12])
def test_hilbert_budget(v, monkeypatch, capsys):
    assert alquot.cli._MAX_HILBERT_PRIME == 10**12
    if v == 10**12:  # the budget's edge is inside it: the place is refused as composite
        assert main(["hilbert", "3", "5", str(v)]) == 1
        assert capsys.readouterr() == ("", "error: 1000000000000 is not prime\n")
        return
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


@pytest.mark.parametrize("argv", cli_corpus.CORPUS, ids=lambda argv: ",".join(argv) or "no-arguments")
def test_main_parses_as_the_whole_tree_does(argv, tmp_path):
    argv = cli_corpus.fill(argv, tmp_path)
    assert cli_corpus.outcome(main, argv) == cli_corpus.outcome(cli_corpus.reference, argv)


class _FullParse(Exception):
    pass


def test_a_command_skips_the_top_level_parse(monkeypatch, tmp_path):
    def full_parse(argv):
        raise _FullParse(argv)

    monkeypatch.setattr(alquot.cli._PARSER, "parse_args", full_parse)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["certify", "5", "17"]) == 0
        assert main(["certify", "7", "17", "--format", "json"]) == 2
        assert main(["certify", "5", "17", "extra"]) == 1
        assert main(["enumerate", "--max", "50"]) == 0
        assert main(["hilbert", "-1", "-85", "5"]) == 0
        assert main(cli_corpus.fill(["graph-check", "{graph}"], tmp_path)) == 0
    for argv in ([], ["-h"], ["bogus"], ["--", "certify", "5", "17"]):
        with pytest.raises(_FullParse):
            main(argv)
