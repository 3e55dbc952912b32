"""An accelerated production year against the live serving stack.

Replays ~6 months of virtual days (185 by default — the May-to-November
2023 window whose tail contains the Firefox/Chrome 119 drift episode)
through the full gauntlet: day-granular traffic with releases landing
on their calendar dates, a co-evolving marketplace adversary, the
one scoring runtime scoring every session, drift-triggered retraining
flowing shadow -> canary -> promote automatically, and a scheduled
chaos drill whose misconfigured candidate must be rolled back by the
day-boundary guardrails.

Acceptance gates (full run):

* the replay covers every configured day (>= 180);
* at least one drift-triggered retrain was staged AND promoted through
  the rollout ramp without manual intervention;
* at least one guardrail rollback fired (the chaos drill);
* per-category detection floors hold (cat1 >= 0.60, cat2 >= 0.40 —
  year-long averages under a co-evolving adversary sit below the
  paper's static-window rates) and the false-positive rate stays
  under 2%;
* p99 latency on the churn day — the chaos-drill day, when the broken
  candidate serves canary traffic — stays under 250 ms;
* with coverage intelligence on (the default), the unknown-UA blind
  window is measurably closed: unknown-UA detection rate and mean
  release-to-retrain lag must clear their floors/ceilings (the
  ``--coverage off`` baseline replays PR 8's reactive behaviour, where
  unknown-UA detection is ~0 and the lag is whatever the alarm path
  happens to deliver);
* **bit-determinism**: a shorter window replayed twice with identical
  seeds produces identical ledger digests.

``--smoke`` (CI) replays a 30-day window twice with tightened sizes:
the determinism, retrain and rollback gates still apply; the
promotion-completed, detection-floor and blind-window gates are
full-run-only.

Results land in ``BENCH_gauntlet.json``::

    PYTHONPATH=src python benchmarks/bench_production_year.py
    PYTHONPATH=src python benchmarks/bench_production_year.py --smoke
    PYTHONPATH=src python benchmarks/bench_production_year.py \
        --smoke --coverage off --output BENCH_gauntlet_baseline.json
"""

import argparse
import sys
import time
from dataclasses import replace
from datetime import date
from pathlib import Path
from typing import List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.gauntlet import GauntletConfig, run_gauntlet  # noqa: E402
from repro.gauntlet.report import (  # noqa: E402
    render_report,
    render_timeline,
    write_gauntlet_json,
)

# Detection floors, full runs only (the smoke window is too small for
# stable per-category rates).  These are year-long averages under a
# co-evolving adversary, not the paper's static-window Table 5 rates:
# the marketplace's buy-freshest adaptation exploits the unknown-UA
# blind window between a release shipping and the next (alarm-forced)
# retrain, which drags cat1/cat2 below their frozen-adversary levels
# (observed: cat1 ~0.68, cat2 ~0.51 at seed 7).
CAT1_FLOOR = 0.60
CAT2_FLOOR = 0.40
FP_CEILING = 0.02
P99_CHURN_GATE_MS = 250.0

# Blind-window gates, full coverage-on runs only.  The ``--coverage
# off`` baseline leaves unknown-UA detection near zero and the mean
# release-to-retrain lag near double digits; with the planner plus the
# "infer" interim policy both must clear these bars (observed at
# seed 7: detection 0.216, mean lag 2.6 days).
UNKNOWN_DETECTION_FLOOR = 0.15
RETRAIN_LAG_CEILING_DAYS = 5.0


def apply_coverage_mode(config: GauntletConfig, coverage: bool) -> GauntletConfig:
    """Flip a config between coverage-on and the PR 8 reactive baseline."""
    if coverage:
        return config
    return replace(config, coverage=False, unknown_ua_policy="ignore")


def full_config(seed: int) -> GauntletConfig:
    return GauntletConfig(seed=seed)


def smoke_config(seed: int) -> GauntletConfig:
    """30 virtual days across the Chrome 118 ship date, tightened sizes.

    The drill lands on day 8 (2023-10-13), three days after chrome-118
    ships — the stale drill candidate flags all of its traffic, so the
    disagreement guardrail has a deterministic breach to catch.
    """
    return GauntletConfig(
        start=date(2023, 10, 5),
        days=30,
        seed=seed,
        sessions_per_day=200,
        brave_per_day=1,
        bootstrap_days=100,
        bootstrap_sessions=6_000,
        max_window_sessions=12_000,
        monitor_window=1_500,
        monitor_min_observations=600,
        min_comparisons=30,
        min_stage_verdicts=10,
        drill_day=8,
        drill_stale_rows=1_500,
        attacks_per_day=8,
    )


def churn_day_p99(result) -> Optional[float]:
    """p99 of the chaos-drill day (the broken candidate serves canary)."""
    if result.drill_day is None:
        return None
    days = result.ledger.column("day")
    return result.ledger.column("p99_ms")[days.index(result.drill_day)]


def _main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--coverage",
        choices=("on", "off"),
        default="on",
        help="'off' replays the reactive baseline (no tracker/planner, "
        "unknown_ua_policy='ignore') for blind-window A/B diffs",
    )
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_gauntlet.json"),
    )
    args = parser.parse_args()

    failures: List[str] = []
    coverage = args.coverage == "on"

    # -- determinism proof: replay the short window twice --------------
    det_config = apply_coverage_mode(smoke_config(args.seed), coverage)
    started = time.perf_counter()
    first = run_gauntlet(det_config)
    first_elapsed = time.perf_counter() - started
    second = run_gauntlet(det_config)
    digest_a = first.ledger.digest()
    digest_b = second.ledger.digest()
    deterministic = digest_a == digest_b
    print(
        f"determinism: {det_config.days}-day window replayed twice in "
        f"~{first_elapsed:.0f}s each -> digests "
        f"{digest_a[:12]}... / {digest_b[:12]}... "
        f"({'MATCH' if deterministic else 'MISMATCH'})"
    )
    if not deterministic:
        failures.append("identical seeds produced different ledger digests")

    # -- the headline replay -------------------------------------------
    if args.smoke:
        result, elapsed = first, first_elapsed
    else:
        config = apply_coverage_mode(full_config(args.seed), coverage)
        started = time.perf_counter()
        result = run_gauntlet(config)
        elapsed = time.perf_counter() - started

    summary = result.summary
    print()
    print(render_report(result.ledger, result.adversary))
    print()
    print(render_timeline(result.ledger, limit=60))
    print(f"\nreplay wall time {elapsed:.1f}s")

    # -- gates ---------------------------------------------------------
    if summary["days"] != result.config.days:
        failures.append(
            f"replay covered {summary['days']} of {result.config.days} days"
        )
    if summary["retrains"] < 1:
        failures.append("no drift-triggered retrain was staged")
    if summary["rollbacks"] < 1:
        failures.append("no guardrail rollback was exercised")
    churn_p99 = churn_day_p99(result)
    if churn_p99 is None:
        failures.append("the chaos drill never fired (no churn day)")
    elif churn_p99 > P99_CHURN_GATE_MS:
        failures.append(
            f"churn-day p99 {churn_p99:.1f} ms exceeds {P99_CHURN_GATE_MS} ms"
        )
    if not args.smoke:
        if summary["days"] < 180:
            failures.append("full replay must cover >= 180 virtual days")
        if summary["promotions"] < 1:
            failures.append("no candidate was promoted through the ramp")
        cat1 = summary["per_category"]["cat1"]["detection_rate"] or 0.0
        cat2 = summary["per_category"]["cat2"]["detection_rate"] or 0.0
        if cat1 < CAT1_FLOOR:
            failures.append(f"cat1 detection {cat1:.2f} below {CAT1_FLOOR}")
        if cat2 < CAT2_FLOOR:
            failures.append(f"cat2 detection {cat2:.2f} below {CAT2_FLOOR}")
        fp = summary["false_positive_rate"] or 0.0
        if fp > FP_CEILING:
            failures.append(f"false-positive rate {fp:.3f} above {FP_CEILING}")
        if coverage:
            unknown_rate = summary["unknown_ua_detection_rate"] or 0.0
            if unknown_rate < UNKNOWN_DETECTION_FLOOR:
                failures.append(
                    f"unknown-UA detection {unknown_rate:.2f} below "
                    f"{UNKNOWN_DETECTION_FLOOR} (blind window still open)"
                )
            lag = summary["mean_retrain_lag_days"]
            if lag is None or lag > RETRAIN_LAG_CEILING_DAYS:
                failures.append(
                    f"mean retrain lag {lag} days above "
                    f"{RETRAIN_LAG_CEILING_DAYS} (planner not closing the "
                    "release gap)"
                )

    write_gauntlet_json(
        result,
        args.output,
        extra={
            "smoke": args.smoke,
            "coverage": coverage,
            "elapsed_s": round(elapsed, 2),
            "determinism": {
                "window_days": det_config.days,
                "digest_first": digest_a,
                "digest_second": digest_b,
                "identical": deterministic,
            },
            "churn_day_p99_ms": (
                None if churn_p99 is None else round(churn_p99, 3)
            ),
            "gates_failed": failures,
        },
    )
    print(f"wrote {args.output}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(_main())
