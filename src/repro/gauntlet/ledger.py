"""The gauntlet's per-day columnar event ledger.

One row per virtual day, stored column-wise; serialized through the
shared bench envelope (:mod:`repro.analysis.benchio`) so ``gauntlet
run`` output, ``BENCH_gauntlet.json`` and every other bench artifact
share one schema and one diff tool (``benchio diff``).

Determinism contract: :meth:`DayLedger.digest` hashes only the columns
in :data:`DIGEST_COLUMNS` — the event history that must be a pure
function of the seed.  Latency percentiles are recorded but excluded:
they depend on wall-clock scheduling, and two identical-seed runs
legitimately differ there.  The breach name rides along unhashed; the
rollback it explains is in the hashed rollout columns.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Sequence

__all__ = ["DayLedger", "DIGEST_COLUMNS", "TIMING_COLUMNS"]

# Deterministic event columns: hashed into the ledger digest.
DIGEST_COLUMNS: Sequence[str] = (
    "day",
    "new_releases",
    "new_release_keys",
    "n_sessions",
    "n_legit",
    "n_fraud",
    "fraud_cat1",
    "fraud_cat2",
    "fraud_cat3",
    "fraud_cat4",
    "flagged_legit",
    "flagged_cat1",
    "flagged_cat2",
    "flagged_cat3",
    "flagged_cat4",
    "monitor_alarm",
    "drift_checked",
    "drift_detected",
    "retrained",
    "staged_version",
    "promotions",
    "rollbacks",
    "rollout_status",
    "rollout_stage",
    "serving_version",
    "marketplace_stock",
    "stock_age_days",
    "adaptations",
    # Blind-window accounting: sessions whose claimed UA was absent
    # from the serving model's table at the start of the day, split by
    # ground truth, plus the coverage planner's per-day decision.
    "unknown_sessions",
    "unknown_fraud",
    "unknown_fraud_flagged",
    "unknown_legit",
    "unknown_legit_flagged",
    "coverage_trigger",
    "coverage_reason",
)

# Wall-clock-dependent columns: recorded for operators, never hashed.
TIMING_COLUMNS: Sequence[str] = (
    "p50_ms",
    "p99_ms",
    "breach",
)

_ALL_COLUMNS = tuple(DIGEST_COLUMNS) + tuple(TIMING_COLUMNS)


class DayLedger:
    """Columnar store of per-day gauntlet events."""

    def __init__(self) -> None:
        self._columns: Dict[str, list] = {name: [] for name in _ALL_COLUMNS}

    # ------------------------------------------------------------------

    def record(self, **fields) -> None:
        """Append one day; every known column must be present."""
        missing = [name for name in _ALL_COLUMNS if name not in fields]
        if missing:
            raise ValueError(f"ledger row missing columns: {missing}")
        unknown = [name for name in fields if name not in self._columns]
        if unknown:
            raise ValueError(f"ledger row has unknown columns: {unknown}")
        for name in _ALL_COLUMNS:
            self._columns[name].append(fields[name])

    def __len__(self) -> int:
        return len(self._columns["day"])

    def column(self, name: str) -> list:
        """One column, oldest day first."""
        return list(self._columns[name])

    # ------------------------------------------------------------------

    def digest(self) -> str:
        """sha256 over the deterministic columns (canonical JSON)."""
        canon = {name: self._columns[name] for name in DIGEST_COLUMNS}
        blob = json.dumps(canon, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def to_cells(self) -> List[dict]:
        """Bench-envelope cells: one dict per day, ``cell`` = the date."""
        cells = []
        for i in range(len(self)):
            cell = {"cell": self._columns["day"][i]}
            for name in _ALL_COLUMNS:
                if name != "day":
                    cell[name] = self._columns[name][i]
            cells.append(cell)
        return cells

    @classmethod
    def from_cells(cls, cells: Sequence[dict]) -> "DayLedger":
        """Rebuild a ledger from envelope cells (``gauntlet report``).

        Columns a cell does not carry (artifacts written before those
        columns existed, e.g. the blind-window tallies) come back as
        ``None``; :meth:`summary` treats ``None`` as absent.  Cells that
        are not day rows (the ``aggregate`` summary cell the bench
        appends) are skipped.
        """
        ledger = cls()
        for cell in cells:
            if cell.get("cell") == "aggregate":
                continue
            fields = {"day": cell["cell"]}
            for name in _ALL_COLUMNS:
                if name != "day":
                    fields[name] = cell.get(name)
            ledger.record(**fields)
        return ledger

    # ------------------------------------------------------------------

    def _sum(self, name: str) -> int:
        """Column sum that tolerates ``None`` entries (older artifacts)."""
        return sum(v for v in self._columns[name] if v is not None)

    def retrain_lags(self) -> List[int]:
        """Days from each release day to the next retrain (blind window).

        For every day that shipped at least one release, the lag is the
        distance to the first same-or-later day whose check retrained;
        a release never followed by a retrain counts the remaining run
        length (right-censored).  Lower is better — this is the metric
        the coverage planner exists to shrink.
        """
        releases = self._columns["new_releases"]
        retrained = self._columns["retrained"]
        n = len(self)
        lags: List[int] = []
        for i in range(n):
            if not releases[i]:
                continue
            for j in range(i, n):
                if retrained[j]:
                    lags.append(j - i)
                    break
            else:
                lags.append(n - i)
        return lags

    def summary(self) -> dict:
        """Whole-run aggregates (detection per category, event counts)."""
        per_category = {}
        for cat in (1, 2, 3, 4):
            total = self._sum(f"fraud_cat{cat}")
            flagged = self._sum(f"flagged_cat{cat}")
            per_category[f"cat{cat}"] = {
                "sessions": total,
                "flagged": flagged,
                "detection_rate": round(flagged / total, 4) if total else None,
            }
        n_legit = self._sum("n_legit")
        fp = self._sum("flagged_legit")
        n_fraud = self._sum("n_fraud")
        fraud_flagged = sum(
            self._sum(f"flagged_cat{c}") for c in (1, 2, 3, 4)
        )
        unknown_fraud = self._sum("unknown_fraud")
        unknown_fraud_flagged = self._sum("unknown_fraud_flagged")
        unknown_legit = self._sum("unknown_legit")
        unknown_legit_flagged = self._sum("unknown_legit_flagged")
        lags = self.retrain_lags()
        p99s = [v for v in self._columns["p99_ms"] if v is not None]
        return {
            "days": len(self),
            "sessions": self._sum("n_sessions"),
            "legit_sessions": n_legit,
            "fraud_sessions": n_fraud,
            "false_positive_rate": round(fp / n_legit, 5) if n_legit else None,
            "overall_detection_rate": (
                round(fraud_flagged / n_fraud, 4) if n_fraud else None
            ),
            "per_category": per_category,
            "drift_checks": self._sum("drift_checked"),
            "drift_detections": self._sum("drift_detected"),
            "retrains": self._sum("retrained"),
            "promotions": self._sum("promotions"),
            "rollbacks": self._sum("rollbacks"),
            "final_serving_version": (
                self._columns["serving_version"][-1] if len(self) else None
            ),
            "monitor_alarm_days": sum(
                1 for v in self._columns["monitor_alarm"] if v
            ),
            "adaptations": self._sum("adaptations"),
            # Blind-window metrics (the coverage subsystem's scoreboard).
            "unknown_ua_sessions": self._sum("unknown_sessions"),
            "unknown_ua_fraud_sessions": unknown_fraud,
            "unknown_ua_detection_rate": (
                round(unknown_fraud_flagged / unknown_fraud, 4)
                if unknown_fraud
                else None
            ),
            "unknown_ua_false_positive_rate": (
                round(unknown_legit_flagged / unknown_legit, 5)
                if unknown_legit
                else None
            ),
            "coverage_retrain_triggers": self._sum("coverage_trigger"),
            "mean_retrain_lag_days": (
                round(sum(lags) / len(lags), 3) if lags else None
            ),
            "max_retrain_lag_days": max(lags) if lags else None,
            "p99_ms_max": round(max(p99s), 3) if p99s else None,
            "ledger_digest": self.digest(),
        }
