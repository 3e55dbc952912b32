"""ASCII rendering of a gauntlet run (``gauntlet report``).

Works from either a live :class:`~repro.gauntlet.orchestrator.GauntletResult`
or a ``BENCH_gauntlet.json`` document (the bench envelope's ``cells``
are the ledger rows), so operators can inspect a committed artifact
without re-running the replay.
"""

from __future__ import annotations

from dataclasses import asdict
from datetime import date
from typing import List, Optional, Union

from repro.analysis.benchio import write_bench_json
from repro.gauntlet.ledger import DayLedger

__all__ = ["render_report", "render_timeline", "write_gauntlet_json"]


def write_gauntlet_json(result, path: Union[str, "Path"], extra: Optional[dict] = None) -> dict:
    """Persist a :class:`GauntletResult` as a bench-envelope document.

    The ledger rows become the envelope's ``cells`` (one per day), so
    ``benchio diff`` and ``gauntlet report`` both read the artifact.
    """
    config = {
        key: value.isoformat() if isinstance(value, date) else value
        for key, value in asdict(result.config).items()
    }
    merged = {
        "summary": result.summary,
        "adversary": result.adversary,
        "rollout_events": [list(event) for event in result.rollout_events],
        "retraining": result.retraining,
        "registry_versions": result.registry_versions,
    }
    if extra:
        merged.update(extra)
    # Whole-run scalars ride along as one extra ``aggregate`` cell so
    # ``benchio diff`` can gate run-level metrics (unknown-UA detection
    # rate, retrain lag) across artifacts; ``DayLedger.from_cells``
    # skips it when rebuilding day rows.
    aggregate = {"cell": "aggregate"}
    aggregate.update(
        {
            key: value
            for key, value in result.summary.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }
    )
    return write_bench_json(
        path,
        benchmark="gauntlet",
        config=config,
        cells=result.ledger.to_cells() + [aggregate],
        extra=merged,
    )


def _fmt_rate(value: Optional[float]) -> str:
    return "-" if value is None else f"{100 * value:.1f}%"


def render_report(ledger: DayLedger, adversary: Optional[dict] = None) -> str:
    """The whole-run summary: detection by category, ops events."""
    summary = ledger.summary()
    lines: List[str] = []
    lines.append("gauntlet replay: %(days)d days, %(sessions)d sessions" % summary)
    lines.append("")
    lines.append("  category                    sessions  flagged  detection")
    labels = {
        "cat1": "1 impossible fingerprint",
        "cat2": "2 fixed engine",
        "cat3": "3 engine follows ua",
        "cat4": "4 genuine browser",
    }
    for key, label in labels.items():
        row = summary["per_category"][key]
        lines.append(
            f"  {label:<26}  {row['sessions']:>8}  {row['flagged']:>7}  "
            f"{_fmt_rate(row['detection_rate']):>9}"
        )
    lines.append(
        f"  {'legit (false positives)':<26}  {summary['legit_sessions']:>8}  "
        f"{sum(ledger.column('flagged_legit')):>7}  "
        f"{_fmt_rate(summary['false_positive_rate']):>9}"
    )
    lines.append("")
    lines.append(
        "  drift checks %d (%d detections) | retrains %d | promotions %d | "
        "rollbacks %d"
        % (
            summary["drift_checks"],
            summary["drift_detections"],
            summary["retrains"],
            summary["promotions"],
            summary["rollbacks"],
        )
    )
    lines.append(
        "  monitor alarm days %d | adversary adaptations %d | "
        "final serving version v%s"
        % (
            summary["monitor_alarm_days"],
            summary["adaptations"],
            summary["final_serving_version"],
        )
    )
    if summary["unknown_ua_sessions"]:
        lines.append(
            "  unknown-ua blind window: %d sessions (%d fraud) | "
            "detection %s | fp %s"
            % (
                summary["unknown_ua_sessions"],
                summary["unknown_ua_fraud_sessions"],
                _fmt_rate(summary["unknown_ua_detection_rate"]),
                _fmt_rate(summary["unknown_ua_false_positive_rate"]),
            )
        )
        lag = summary["mean_retrain_lag_days"]
        lines.append(
            "  coverage triggers %d | retrain lag mean %s / max %s days"
            % (
                summary["coverage_retrain_triggers"],
                "-" if lag is None else f"{lag:.1f}",
                summary["max_retrain_lag_days"],
            )
        )
    if summary["p99_ms_max"] is not None:
        lines.append(f"  worst day p99 {summary['p99_ms_max']:.3f} ms")
    lines.append(f"  ledger digest {summary['ledger_digest'][:16]}...")
    if adversary:
        lines.append("")
        lines.append(
            "  adversary end state: weights "
            + " ".join(
                f"cat{c}={w}" for c, w in sorted(adversary["weights"].items())
            )
        )
        lines.append(
            f"  cat2 spoof target {adversary['cat2_target']} | "
            f"buying freshest: {adversary['buy_freshest']}"
        )
    return "\n".join(lines)


def render_timeline(ledger: DayLedger, limit: Optional[int] = None) -> str:
    """Day-by-day event log, quiet days elided."""
    days = ledger.column("day")
    interesting: List[str] = []
    for i in range(len(ledger)):
        events: List[str] = []
        keys = ledger.column("new_release_keys")[i]
        if keys:
            events.append("ships " + ", ".join(keys))
        reason = ledger.column("coverage_reason")[i]
        if reason:
            events.append(f"coverage trigger: {reason}")
        if ledger.column("drift_checked")[i]:
            detected = ledger.column("drift_detected")[i]
            events.append("drift check" + (": DRIFT" if detected else ": clean"))
        if ledger.column("retrained")[i]:
            events.append(f"retrained -> v{ledger.column('staged_version')[i]}")
        if ledger.column("promotions")[i]:
            events.append("PROMOTED")
        if ledger.column("rollbacks")[i]:
            breach = ledger.column("breach")[i]
            events.append(f"ROLLBACK ({breach})")
        if ledger.column("monitor_alarm")[i]:
            events.append("monitor ALARM")
        if ledger.column("adaptations")[i]:
            events.append(
                f"adversary adapts x{ledger.column('adaptations')[i]}"
            )
        if events:
            interesting.append(f"  {days[i]}  " + "; ".join(events))
    if limit is not None and len(interesting) > limit:
        skipped = len(interesting) - limit
        interesting = interesting[:limit] + [f"  ... {skipped} more event days"]
    if not interesting:
        return "  (no notable events)"
    return "\n".join(interesting)
