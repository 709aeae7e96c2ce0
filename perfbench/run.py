"""alquot benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/``; a
checkout without it is an error (exit 2).  Each measured run happens in a
fresh interpreter started by this script, as for a command-line user, so
no cache survives from one run to the next.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median time
to import ``alquot.cli`` in fresh interpreters), ``ops_per_s``,
``op_p50_ms`` and ``op_p90_ms`` (per operation, or per command for
``enumerate``), and ``peak_rss_mb`` (median ``ru_maxrss`` of the measuring
processes).  ``--trace 1`` runs a fixed number of input blocks once
untraced and once traced and reports the per-layer metrics of
``tracing.PER_LAYER``.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans of a traced run are written to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("enumerate", "certify_large", "symbols", "graph")
TRACE_BLOCKS = {"enumerate": 1, "certify_large": 3, "symbols": 5, "graph": 2}
SETUP_SAMPLES = 10
IMPORTTIME_SAMPLES = 5
MAX_WORKERS = 30
WORKER_TIMEOUT_S = 120
TRACE_SECONDS_CAP = 50  # a traced pass is bounded by TRACE_BLOCKS; this is a backstop

# Prints the raw import time and the calibration factor measured around it.
IMPORT_SNIPPET = (
    f"import sys; sys.path.insert(0, {str(HERE)!r}); import calibration as c; "
    "from time import perf_counter as now; loops = c.loop_samples(5); t = now(); "
    "import alquot.cli; t = now() - t; print(t, c.scale(loops + c.loop_samples(5)))"
)


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _python(args: list[str], timeout: float = 60) -> subprocess.CompletedProcess:
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(), capture_output=True,
                          text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(args[:2])} failed:\n{done.stderr.strip()}")
    return done


def import_seconds(samples: int) -> list[tuple[float, float]]:
    """(raw, calibrated) import times of alquot.cli, each in a fresh
    interpreter."""
    out = []
    for _ in range(samples):
        raw, scale = map(float, _python(["-c", IMPORT_SNIPPET]).stdout.split())
        out.append((raw, raw * scale))
    return out


def import_breakdown() -> tuple[float, float]:
    """(numpy, rest of alquot) cumulative import seconds from -X importtime,
    medians over fresh interpreters."""
    numpy_s, alquot_s = [], []
    for _ in range(IMPORTTIME_SAMPLES):
        done = _python(["-X", "importtime", "-c", IMPORT_SNIPPET])
        scale = float(done.stdout.split()[1])
        stderr = done.stderr
        numpy, total = 0, 0
        for line in stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, package = line.split("|")
            if not cumulative.strip().isdigit():
                continue  # the header line
            name = package.rstrip()
            if name.strip() == "numpy":
                numpy = int(cumulative)
            if name.startswith(" alquot"):  # top-level entries carry one space
                total += int(cumulative)
        numpy_s.append(numpy / 1e6 * scale)
        alquot_s.append((total - numpy) / 1e6 * scale)
    return statistics.median(numpy_s), statistics.median(alquot_s)


def worker(workload: str, seed: int, seconds: float, workdir: Path,
           blocks: int = 0, spans: Path | None = None) -> dict:
    result = workdir / "result.json"
    args = [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--workdir", str(workdir), "--result", str(result),
            "--blocks", str(blocks)]
    if spans is not None:
        args += ["--spans", str(spans)]
    _python(args, timeout=WORKER_TIMEOUT_S)
    return json.loads(result.read_text(encoding="utf-8"))


def quantile(values: list[float], q: int) -> float:
    """q-th percentile (q in 10..90, step 10), interpolated inclusively."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def end_to_end(workload: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, list]:
    # The machine's speed drifts, so import times are sampled before and
    # after the measured runs.
    setup = import_seconds(SETUP_SAMPLES // 2)
    runs: list[dict] = []
    while sum(r["raw_s"] for r in runs) < seconds and len(runs) < MAX_WORKERS:
        remaining = seconds - sum(r["raw_s"] for r in runs)
        runs.append(worker(workload, seed, remaining, workdir))
    setup += import_seconds(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    latencies = [x for r in runs for x in r["latencies_ms"]]
    attempted = sum(r["attempted"] for r in runs)
    raw_s = sum(r["raw_s"] for r in runs)
    print(f"{workload}: uncalibrated setup_s {statistics.median(x for x, _ in setup):.4f} s, "
          f"ops_per_s {attempted / raw_s:.2f} 1/s over {raw_s:.1f} s of timed work")
    metrics = {
        "setup_s": (statistics.median(y for _, y in setup), "s"),
        "ops_per_s": (attempted / sum(r["timed_s"] for r in runs), "1/s"),
        "op_p50_ms": (quantile(latencies, 50), "ms"),
        "op_p90_ms": (quantile(latencies, 90), "ms"),
        "peak_rss_mb": (statistics.median(r["rss_kb"] for r in runs) / 1024, "MB"),
    }
    print(f"{workload}: {len(runs)} process(es), {attempted} operations, "
          f"{len(latencies)} latency samples")
    return metrics, runs


def per_layer(workload: str, seed: int, workdir: Path) -> tuple[dict, list]:
    from tracing import PER_LAYER

    numpy_s, alquot_s = import_breakdown()
    blocks = TRACE_BLOCKS[workload]
    plain = worker(workload, seed, TRACE_SECONDS_CAP, workdir, blocks=blocks)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    traced = worker(workload, seed, TRACE_SECONDS_CAP, workdir, blocks=blocks, spans=spans)
    scale = traced["timed_s"] / traced["raw_s"]
    values = {name: value * scale if name.endswith(".self_s") else value
              for name, value in traced["layers"].items()}
    values["cli.output_bytes"] = traced["cli_bytes"]
    values["setup.import.numpy_s"] = numpy_s
    values["setup.import.alquot_s"] = alquot_s
    values["trace.overhead_ratio"] = traced["timed_s"] / plain["timed_s"]
    print(f"{workload}: {blocks} input block(s), {traced['attempted']} operations traced, "
          f"spans in {spans.relative_to(ROOT)}")
    return {name: (values[name], unit) for name, unit, _ in PER_LAYER}, [plain, traced]


def input_properties(runs: list[dict]) -> dict:
    """Merged descriptions of the input blocks the runs consumed, with the
    share of distinct discriminants (one per p) and the mean graph size."""
    from inputs import merge_properties

    props: dict = {}
    for r in runs:
        merge_properties(props, r["inputs"])
    if "pairs" in props:
        props["distinct_D_share"] = props["distinct_p"] / props["pairs"]
    if "graphs" in props:
        props["oriented_edges_mean"] = props["oriented_edges"] / props["graphs"]
    return props


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (SRC / "alquot" / "__init__.py").is_file():
        print(f"error: no alquot package under {SRC}", file=sys.stderr)
        return 2
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    print(f"machine: nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"numpy {numpy_version}")

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        import_seconds(1)  # warm-up: fills the bytecode cache of a fresh checkout
        if args.trace:
            metrics, runs = per_layer(args.workload, args.seed, workdir)
        else:
            metrics, runs = end_to_end(args.workload, args.seed, args.seconds, workdir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"inputs (seed {args.seed}): {json.dumps(input_properties(runs))}")
    for note in (n for r in runs for n in r["notes"]):
        print(f"check failed: {note}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<50} {value:>14.6g} {unit}")
    print(f"  {'failed_ratio':<50} {failed / attempted:>14.6g} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
