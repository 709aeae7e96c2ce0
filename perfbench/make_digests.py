"""Rewrite digests.json from the program's current outputs.

    PYTHONPATH=src python3 perfbench/make_digests.py

Each digest covers the first input block of the default seed (for
``enumerate``, the whole table, which no seed changes).  Run this only
after checking that the current outputs are right: the benchmark counts
any later difference as failed operations.
"""

import json
import tempfile
from pathlib import Path

import workloads


def main() -> None:
    digests = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent.parent) as workdir:
        for name, workload in workloads.WORKLOADS.items():
            stats = workloads.measure(workload, workloads.DEFAULT_SEED, 0, Path(workdir),
                                      max_blocks=1)
            if stats["failed"]:
                raise SystemExit(f"{name}: {stats['notes']}")
            digests[name] = stats["digest"]
    path = Path(__file__).parent / "digests.json"
    path.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
