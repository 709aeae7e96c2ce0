"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
import refarith  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL_ENUMERATE = workloads.Enumerate(bound=300)


def _workload(name: str):
    return SMALL_ENUMERATE if name == "enumerate" else workloads.WORKLOADS[name]


def _run(workload, workdir: Path, tracer=None, seed: int = workloads.DEFAULT_SEED) -> tuple[dict, list]:
    outputs: list[str] = []
    if tracer is not None:
        tracer.install()
    try:
        stats = workloads.measure(workload, seed, 0, workdir, tracer=tracer, max_blocks=1,
                                  outputs=outputs)
    finally:
        if tracer is not None:
            tracer.restore()
    return stats, outputs


def _alquot_bindings() -> dict:
    bindings = {}
    for name, module in list(sys.modules.items()):
        if name == "alquot" or name.startswith("alquot."):
            bindings.update({(name, key): value for key, value in vars(module).items()})
    for module_name, cls_name, _, _ in tracing.METHODS:
        cls = getattr(sys.modules[module_name], cls_name)
        bindings.update({(cls_name, key): value for key, value in vars(cls).items()})
    return bindings


def test_generators_repeat_for_a_seed():
    assert inputs.certify_pairs(7) == inputs.certify_pairs(7)
    assert inputs.certify_pairs(7) != inputs.certify_pairs(8)
    assert inputs.symbol_block(7, 2) == inputs.symbol_block(7, 2)
    assert inputs.symbol_block(7, 2) != inputs.symbol_block(7, 3)
    assert inputs.graph_blocks(7) == inputs.graph_blocks(7)
    assert inputs.graph_blocks(7) != inputs.graph_blocks(8)


def test_certify_pairs_are_admissible_with_distinct_p():
    pairs = [pair for block in inputs.certify_pairs(2) for pair in block]
    assert len(pairs) >= 300
    assert all(refarith.admissible(p, q) for p, q in pairs)
    assert len({p for p, _ in pairs}) == len(pairs)


def test_reference_hilbert_symbol_matches_the_search_oracle():
    from alquot.ntheory import Place, hilbert_symbol_oracle

    values = [n for n in range(-30, 31) if n]
    for v in (2, 3, 5, 7):
        for a in values:
            for b in values:
                assert refarith.hilbert(a, b, v) == hilbert_symbol_oracle(a, b, Place(v)), (a, b, v)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_outputs_are_identical(name, tmp_path):
    workload = _workload(name)
    plain, plain_outputs = _run(workload, tmp_path)
    tracer = tracing.Tracer("test")
    traced, traced_outputs = _run(workload, tmp_path, tracer)
    assert plain["failed"] == traced["failed"] == 0, plain["notes"] + traced["notes"]
    assert "".join(plain_outputs).encode() == "".join(traced_outputs).encode()
    assert sum(tracer.calls.values()) > 0
    assert all(span[2] <= span[3] for span in tracer.spans)


def test_wrappers_are_restored_after_a_run(tmp_path):
    before = _alquot_bindings()
    tracer = tracing.Tracer("test")
    tracer.install()
    import alquot.quadforms

    assert alquot.quadforms.class_number is not before[("alquot.quadforms", "class_number")]
    tracer.restore()
    _run(workloads.WORKLOADS["certify_large"], tmp_path, tracing.Tracer("again"))
    after = _alquot_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_certify_trace_counts_the_known_repeated_work(tmp_path):
    tracer = tracing.Tracer("test")
    stats, _ = _run(workloads.WORKLOADS["certify_large"], tmp_path, tracer)
    layers = tracer.layer_metrics()
    assert layers["parity.certify.calls"] == stats["attempted"]
    assert layers["quadforms.class_number.calls"] == 2 * stats["attempted"]
    assert layers["quadforms.class_number.distinct_ratio"] == 0.5


class _OneWrongRecord(workloads.CertifyLarge):
    def render(self, item, raw):
        output, cli_text, keep = super().render(item, raw)
        if item == self.victim:
            output = output.replace('"verdict": "odd"', '"verdict": "even"')
        return output, cli_text, keep


@pytest.mark.parametrize("seed, failed", [(2, 1), (workloads.DEFAULT_SEED, 10)])
def test_an_injected_wrong_record_is_a_failure(tmp_path, seed, failed):
    # with the default seed the stored digest also fails the whole block
    workload = _OneWrongRecord()
    workload.victim = inputs.certify_pairs(seed)[0][3]
    stats, _ = _run(workload, tmp_path, seed=seed)
    assert stats["attempted"] == 10
    assert stats["failed"] == failed
    assert "verdict is not odd" in stats["notes"][0]


def test_a_wrong_enumerate_row_is_a_failure(tmp_path):
    item = next(SMALL_ENUMERATE.blocks(1, tmp_path))[0]
    SMALL_ENUMERATE.run(item)
    output = SMALL_ENUMERATE.render(item, None)[0]
    assert SMALL_ENUMERATE.check(item, output, None) == (0, None)
    lines = output.splitlines(keepends=True)
    wrong = lines[:3] + [lines[3].replace(",odd,", ",even,")] + lines[4:]
    assert SMALL_ENUMERATE.check(item, "".join(wrong), None)[0] == 1
    missing = lines[:1] + lines[2:]
    assert SMALL_ENUMERATE.check(item, "".join(missing), None)[0] == 1


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"}


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "symbols",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
