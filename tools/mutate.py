"""A mutation sample of one module: which single faults does tier-1 miss?

Each mutant changes one operator or constant of the module:

* a comparison: ``<``/``<=``, ``>``/``>=``, ``==``/``!=``, ``is``/``is not``
  and ``in``/``not in`` each turn into the other;
* arithmetic: ``+``/``-`` and ``*``/``//`` swap, ``%`` becomes ``//``;
* logic: ``and``/``or`` swap;
* an int constant (not a bool) grows by 1.

The mutant is the module's syntax tree with that one change, written back
with ``ast.unparse`` (so it loses its comments); the unmutated module,
written back the same way, must pass first, in every copy of the
repository at once, as the mutants will run.  Each mutant runs tier-1 with
``-x`` in its own copy, the module's own test file first, and is killed by
a failing test or by the timeout.  The timeout is a multiple of the
slowest unmutated run, with a floor, so that an unmutated run never
reaches it under the same contention.  A full run of ``cli.py`` (45
mutants) takes about 3 minutes on two cores with ``--jobs 2``.

    python tools/mutate.py src/alquot/cli.py --seed 31 --jobs 2 --out MUTANTS.json

The record gives the run's wall time in seconds and lists the survivors
with their source lines; a survivor's ``reason`` is left empty for a
reader to fill in.  ``--out`` names a JSON object keyed by module path,
such as ``MUTANTS.json``: the run replaces its own module's record there
and keeps the others.
"""

from __future__ import annotations

import argparse
import ast
import copy
import json
import os
import queue
import random
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv,
    ast.And: ast.Or, ast.Or: ast.And,
}
# a mutant may take TIMEOUT_MULTIPLE times the slowest unmutated run, and
# at least TIMEOUT_FLOOR_S, before it counts as killed by the timeout; an
# unmutated run itself may take UNMUTATED_LIMIT_S
TIMEOUT_MULTIPLE = 3
TIMEOUT_FLOOR_S = 30.0
UNMUTATED_LIMIT_S = 600.0


def points(tree: ast.AST) -> list[tuple[int, int | None]]:
    """Every mutation point: a node's index in ``ast.walk`` order, and for a
    comparison the index of its operator."""
    found = []
    for index, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            found += [(index, k) for k, op in enumerate(node.ops) if type(op) in SWAPS]
        elif isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in SWAPS:
            found.append((index, None))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((index, None))
    return found


def mutate(tree: ast.AST, point: tuple[int, int | None]) -> tuple[str, int, str]:
    """The mutant's source, the mutated node's line and what changed."""
    tree = copy.deepcopy(tree)
    index, k = point
    node = next(n for i, n in enumerate(ast.walk(tree)) if i == index)
    if isinstance(node, ast.Compare):
        old = node.ops[k]
        node.ops[k] = SWAPS[type(old)]()
        change = f"{type(old).__name__} -> {type(node.ops[k]).__name__}"
    elif isinstance(node, ast.Constant):
        change = f"{node.value} -> {node.value + 1}"
        node.value += 1
    else:
        old = node.op
        node.op = SWAPS[type(old)]()
        change = f"{type(old).__name__} -> {type(node.op).__name__}"
    return ast.unparse(tree), node.lineno, change


def run_tests(copy_root: Path, first: str, timeout: float) -> str:
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", first, "tests"]
    env = {**os.environ, "PYTHONPATH": str(copy_root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(command, cwd=copy_root, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if done.returncode == 0 else "killed"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="a module under src/, e.g. src/alquot/cli.py")
    parser.add_argument("--seed", type=int, default=0, help="draws the sample and orders the run")
    parser.add_argument("--sample", type=int, default=None, help="mutants to draw (default: every point)")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", default=None, help="merge the record into this JSON file instead of printing it")
    args = parser.parse_args()
    started = time.monotonic()

    module = Path(args.module).resolve().relative_to(ROOT)
    source = (ROOT / module).read_text(encoding="utf-8")
    tree = ast.parse(source)
    every = points(tree)
    chosen = random.Random(args.seed).sample(every, min(args.sample or len(every), len(every)))
    first = f"tests/test_{module.stem}.py" if (ROOT / f"tests/test_{module.stem}.py").exists() else "tests"
    lines = source.splitlines()

    with tempfile.TemporaryDirectory() as work:
        copies = [Path(work) / str(j) for j in range(args.jobs)]
        for root in copies:
            shutil.copytree(ROOT, root, ignore=shutil.ignore_patterns(".git", "__pycache__", ".perfbench_*"))
            (root / module).write_text(ast.unparse(tree), encoding="utf-8")

        def unmutated(root):
            start = time.monotonic()
            outcome = run_tests(root, first, UNMUTATED_LIMIT_S)
            return outcome, time.monotonic() - start

        with ThreadPoolExecutor(args.jobs) as pool:
            runs = list(pool.map(unmutated, copies))
        outcomes = {outcome for outcome, _ in runs}
        if outcomes != {"survived"}:
            verb = "times out" if "timeout" in outcomes else "fails"
            print(f"error: tier-1 {verb} on {module} written back unmutated", file=sys.stderr)
            return 1
        baseline = max(seconds for _, seconds in runs)
        timeout = max(TIMEOUT_FLOOR_S, TIMEOUT_MULTIPLE * baseline)
        free: queue.Queue[Path] = queue.Queue()  # the copies no mutant is using
        for root in copies:
            free.put(root)

        def trial(point):
            root = free.get()
            try:
                text, line, change = mutate(tree, point)
                (root / module).write_text(text, encoding="utf-8")
                return line, change, run_tests(root, first, timeout)
            finally:
                free.put(root)

        with ThreadPoolExecutor(args.jobs) as pool:
            results = list(pool.map(trial, chosen))

    counts = {outcome: sum(r[2] == outcome for r in results) for outcome in ("killed", "timeout", "survived")}
    record = {
        "command": " ".join(["python", "tools/mutate.py", *sys.argv[1:]]), "module": str(module), "seed": args.seed, "points": len(every), "mutants": len(chosen),
        "baseline_s": round(baseline, 1), "timeout_s": round(timeout, 1),
        "wall_s": round(time.monotonic() - started), **counts,
        "survivors": [{"line": line, "mutation": change, "source": lines[line - 1].strip(), "reason": ""}
                      for line, change, outcome in sorted(results) if outcome == "survived"],
    }
    if args.out:  # one record per module: replace this module's, keep the others
        out = Path(args.out)
        records = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
        records[str(module)] = record
        out.write_text(json.dumps(dict(sorted(records.items())), indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    else:
        sys.stdout.write(json.dumps(record, indent=1, ensure_ascii=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
