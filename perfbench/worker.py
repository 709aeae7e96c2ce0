"""Run one workload in a fresh interpreter and write its figures as JSON.

    PYTHONPATH=src python3 perfbench/worker.py --workload NAME --seed N
        --seconds S --workdir DIR --result FILE [--blocks K] [--spans FILE]

With ``--spans`` the run is traced and the spans are written to FILE.
``run.py`` starts this script; it is not meant to be called by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--blocks", type=int, default=0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.spans:
        tracer = Tracer(f"{args.workload}:{args.seed}")
        tracer.install()
    try:
        stats = workloads.measure(workload, args.seed, args.seconds, args.workdir,
                                  tracer=tracer, max_blocks=args.blocks or None)
    finally:
        if tracer is not None:
            tracer.restore()
    stats["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        stats["layers"] = tracer.layer_metrics()
        tracer.write(args.spans)
    args.result.write_text(json.dumps(stats), encoding="utf-8")


if __name__ == "__main__":
    main()
