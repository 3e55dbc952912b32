#!/usr/bin/env python3
"""The repo benchmark: socket in → verdict out, on four traffic mixes.

    python3 benchmarks/e2e/run.py                         # all workloads
    python3 benchmarks/e2e/run.py --workload all_miss --seed 3 --seconds 18 --trace 0
    python3 benchmarks/e2e/run.py --workload all_miss --trace 1   # per-layer
    python3 benchmarks/e2e/run.py --selfcheck             # is it steady here?

Trains (or loads the cached) model, and for each workload boots the real
``python -m repro serve`` process three times, drives it over real
sockets, checks every response against the reference verdict, and
prints every metric by name with its unit.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=7, help="traffic seed")
    parser.add_argument(
        "--seconds", type=float, default=18.0,
        help="measured seconds per workload, split over rounds and phases",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: also run the traced in-process replay and report the "
        "per-layer metrics instead of the end-to-end ones",
    )
    parser.add_argument(
        "--selfcheck", action="store_true",
        help="run every workload as two alternating sets and compare them "
        "against the bounds",
    )
    parser.add_argument(
        "--sets-of", type=int, default=3, help="runs per set for --selfcheck"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (REPO_ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"run.py: {REPO_ROOT} is not a checkout of the repository "
            "(src/repro is missing); nothing to measure",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.path.insert(0, str(HERE))

    from e2ebench import server

    # Every process this run starts, and every process those start, has
    # ended and been waited for before this one exits -- on every path
    # out, a SIGTERM from whoever runs the benchmark included.
    server.adopt_orphans()
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        return _measure(args)
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)  # finish the sweep
        server.stop_own_resource_tracker()
        server.wait_gone()


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def _measure(args) -> int:
    from e2ebench import report, spec
    from e2ebench.harness import Harness

    names = list(spec.WORKLOADS)
    if args.workload:
        if args.workload not in spec.WORKLOADS:
            print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        names = [args.workload]

    started = time.perf_counter()
    harness = Harness(REPO_ROOT, OUT_DIR, seed=args.seed, seconds=args.seconds)
    if args.selfcheck:
        from e2ebench.selfcheck import selfcheck

        return selfcheck(harness, names, runs_per_set=args.sets_of)

    results = harness.run(names, trace=bool(args.trace))
    report.print_run(results, harness, trace=bool(args.trace))
    print(f"wall time {time.perf_counter() - started:.1f} s")
    document = report.result_document(results, trace=bool(args.trace))
    print(json.dumps(document))
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
