"""``--selfcheck``: does the same code measure the same numbers twice here?

Every workload is run as two sets, A and B, alternating (A1 B1 A2 B2 …)
so slow drift of the host hits both alike, each run on its own seed as
the driver does it.  Per metric: each set's median and quartiles, the
within-set spread (interquartile range over median) and how much worse
B's median reads than A's.  Fails if a spread exceeds the metric's bound
or a median difference exceeds half of it.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

from . import spec
from .harness import Harness


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (the driver's measure)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` reads than ``first``, as a share of ``first``."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def selfcheck(harness: Harness, names: Sequence[str], runs_per_set: int = 3) -> int:
    if runs_per_set < 3:
        raise SystemExit("--sets-of must be at least 3")
    failures: List[str] = []
    for name in names:
        sets: Dict[str, List[Dict[str, float]]] = {"A": [], "B": []}
        for index in range(runs_per_set):
            for label in ("A", "B"):
                seeded = Harness(
                    harness.repo_root, harness.out_dir,
                    seed=harness.seed + 2 * index + (label == "B"),
                    seconds=harness.run_seconds,
                )
                run = seeded.run([name])[0]
                for problem in run.summary.problems:
                    failures.append(f"{name} {label}{index + 1}: {problem}")
                sets[label].append(dict(run.summary.e2e))
                print(f"{name} {label}{index + 1}: " + "  ".join(
                    f"{k}={v:.4g}" for k, v in run.summary.e2e.items()
                ), flush=True)
        print(f"\n== {name}: sets of {runs_per_set} ==")
        print(f"  {'metric':<24} {'A q1/median/q3':<34} {'B q1/median/q3':<34} "
              f"{'spread A':>9} {'spread B':>9} {'B worse':>8} {'bound':>6}")
        for metric in spec.END_TO_END:
            a = [r[metric.name] for r in sets["A"] if metric.name in r]
            b = [r[metric.name] for r in sets["B"] if metric.name in r]
            if len(a) < 3 or len(b) < 3:
                failures.append(f"{name}: {metric.name} missing from a run")
                continue
            qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
            sa, sb = spread(a), spread(b)
            diff = worse_by(statistics.median(a), statistics.median(b), metric.better)
            print(
                f"  {metric.name:<24} "
                f"{qa[0]:>10.4g}/{qa[1]:>10.4g}/{qa[2]:>10.4g}  "
                f"{qb[0]:>10.4g}/{qb[1]:>10.4g}/{qb[2]:>10.4g}  "
                f"{sa:>9.3f} {sb:>9.3f} {diff:>+8.3f} {metric.bound:>6.3f}"
            )
            # setup_s is gated on its median only (the driver's rule).
            if metric.name != "setup_s" and max(sa, sb) > metric.bound:
                failures.append(
                    f"{name}: {metric.name} spread {max(sa, sb):.3f} > bound {metric.bound}"
                )
            if abs(diff) > metric.bound / 2:
                failures.append(
                    f"{name}: {metric.name} set medians differ by {diff:+.3f}, "
                    f"more than half the bound {metric.bound}"
                )
    print()
    for failure in failures:
        print(f"SELFCHECK FAIL: {failure}")
    print("selfcheck " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0
