"""Shadow scoring: the candidate sees traffic, users never see it.

A configurable sample of live-arm requests is mirrored to the candidate
model *after* the live verdict is decided.  :class:`ShadowScorer` owns
one daemon thread and one bounded list of pending rows: a scoring batch
hands over its mirrored rows in one call, and the thread swaps out
everything pending and compares it with one candidate model call.  The
mirror path can fall behind (or shed outright) without ever adding a
model call to the latency-critical path.

Every comparison lands in a :class:`DisagreementReport`: the overall
verdict-mismatch rate, the same broken down per user-agent release
(drift is per-release, so a candidate that mis-scores exactly one new
Firefox build must be visible as such), the flag-rate delta, and the
risk-factor distribution shift between the two models.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.pipeline import BrowserPolygraph
from repro.runtime.stats import RuntimeStats

__all__ = ["MAX_PENDING_ROWS", "DisagreementReport", "ShadowScorer"]

# Risk-factor histogram key for sessions the model did not flag.
_CLEAN = -1

# Mirrored rows waiting for the shadow thread; beyond it a mirror sheds.
MAX_PENDING_ROWS = 2048

# One mirrored row: (values, ua_key, live flagged, live risk factor).
MirroredRow = Tuple[Tuple[int, ...], str, bool, Optional[int]]


class DisagreementReport:
    """Thread-safe accumulator of candidate-vs-live comparisons."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.comparisons = 0
        self.mismatches = 0
        self.live_flagged = 0
        self.candidate_flagged = 0
        self.shed = 0
        self._per_ua: Dict[str, List[int]] = {}  # ua_key -> [comparisons, mismatches]
        self._live_risk: Counter = Counter()
        self._candidate_risk: Counter = Counter()

    # ------------------------------------------------------------------

    def record_many(self, rows: Sequence[MirroredRow], results: Sequence) -> None:
        """Fold one batch: each mirrored row against the candidate's
        detection result for it (``results`` in row order)."""
        with self._lock:
            for (_, ua_key, live_flagged, live_risk), result in zip(rows, results):
                entry = self._per_ua.setdefault(ua_key, [0, 0])
                entry[0] += 1
                if (live_flagged, live_risk) != (result.flagged, result.risk_factor):
                    self.mismatches += 1
                    entry[1] += 1
                self.live_flagged += bool(live_flagged)
                self.candidate_flagged += bool(result.flagged)
                self._live_risk[_CLEAN if live_risk is None else live_risk] += 1
                self._candidate_risk[
                    _CLEAN if result.risk_factor is None else result.risk_factor
                ] += 1
            self.comparisons += len(rows)

    def note_shed(self, n: int) -> None:
        """Count ``n`` mirrored rows that were never compared."""
        with self._lock:
            self.shed += n

    # ------------------------------------------------------------------

    @property
    def disagreement_rate(self) -> float:
        """Share of comparisons where the verdicts differed."""
        with self._lock:
            return self.mismatches / self.comparisons if self.comparisons else 0.0

    @property
    def live_flag_rate(self) -> float:
        with self._lock:
            return self.live_flagged / self.comparisons if self.comparisons else 0.0

    @property
    def candidate_flag_rate(self) -> float:
        with self._lock:
            return (
                self.candidate_flagged / self.comparisons
                if self.comparisons
                else 0.0
            )

    @property
    def flag_rate_delta(self) -> float:
        """Candidate flag rate minus live flag rate (signed)."""
        with self._lock:
            if not self.comparisons:
                return 0.0
            return (self.candidate_flagged - self.live_flagged) / self.comparisons

    @property
    def risk_shift(self) -> float:
        """Total-variation distance between the risk-factor distributions."""
        with self._lock:
            n = self.comparisons
            if not n:
                return 0.0
            keys = set(self._live_risk) | set(self._candidate_risk)
            return 0.5 * sum(
                abs(self._live_risk.get(k, 0) - self._candidate_risk.get(k, 0)) / n
                for k in keys
            )

    def per_ua(self) -> Dict[str, dict]:
        """Per-release breakdown: comparisons, mismatches, rate."""
        with self._lock:
            return {
                ua: {
                    "comparisons": counts[0],
                    "mismatches": counts[1],
                    "rate": counts[1] / counts[0] if counts[0] else 0.0,
                }
                for ua, counts in sorted(self._per_ua.items())
            }

    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Serializable point-in-time view (persisted with the state)."""
        with self._lock:
            per_ua = {ua: list(counts) for ua, counts in self._per_ua.items()}
            live_risk = {str(k): v for k, v in self._live_risk.items()}
            candidate_risk = {str(k): v for k, v in self._candidate_risk.items()}
            comparisons = self.comparisons
            mismatches = self.mismatches
            live_flagged = self.live_flagged
            candidate_flagged = self.candidate_flagged
            shed = self.shed
        return {
            "comparisons": comparisons,
            "mismatches": mismatches,
            "live_flagged": live_flagged,
            "candidate_flagged": candidate_flagged,
            "shed": shed,
            "per_ua": per_ua,
            "live_risk": live_risk,
            "candidate_risk": candidate_risk,
        }

    @classmethod
    def restore(cls, snapshot: Optional[dict]) -> "DisagreementReport":
        """Rebuild a report from :meth:`snapshot` (empty when ``None``)."""
        report = cls()
        if not snapshot:
            return report
        report.comparisons = int(snapshot.get("comparisons", 0))
        report.mismatches = int(snapshot.get("mismatches", 0))
        report.live_flagged = int(snapshot.get("live_flagged", 0))
        report.candidate_flagged = int(snapshot.get("candidate_flagged", 0))
        report.shed = int(snapshot.get("shed", 0))
        report._per_ua = {
            ua: list(map(int, counts))
            for ua, counts in snapshot.get("per_ua", {}).items()
        }
        report._live_risk = Counter(
            {int(k): int(v) for k, v in snapshot.get("live_risk", {}).items()}
        )
        report._candidate_risk = Counter(
            {int(k): int(v) for k, v in snapshot.get("candidate_risk", {}).items()}
        )
        return report


class ShadowScorer:
    """Scores mirrored traffic against the candidate, off the live path.

    The scorer's thread starts with it.  :meth:`mirror_many` appends a
    batch's mirrored rows to the pending list (up to
    :data:`MAX_PENDING_ROWS`; the rest are shed) and returns at once.
    The thread swaps out everything pending, runs one candidate
    ``evaluate_vectors`` over it and folds the comparisons into
    ``report``; ``on_comparison`` (the rollout manager's guardrail
    check) then fires once per drained batch.  A candidate call that
    raises settles its rows as shed, and the thread serves the next
    batch.  After :meth:`stop` or :meth:`shutdown` the thread settles
    what is pending and exits.
    """

    def __init__(
        self,
        candidate: BrowserPolygraph,
        report: DisagreementReport,
        stats: Optional[RuntimeStats] = None,
        on_comparison: Optional[Callable[[], None]] = None,
    ) -> None:
        if not candidate.is_fitted:
            raise ValueError("ShadowScorer requires a fitted candidate")
        # One snapshot for the whole shadow run: a candidate is immutable
        # while it is under evaluation.
        _, self._detector = candidate.detection_snapshot()
        self.report = report
        self.stats = stats if stats is not None else RuntimeStats()
        self.on_comparison = on_comparison
        self._cond = threading.Condition()
        self._pending: List[MirroredRow] = []
        self._comparing = False  # a swapped-out batch is not settled yet
        self._running = True
        self._thread = threading.Thread(
            target=self._run, name="polygraph-shadow", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop accepting mirrors; the thread exits once what is pending
        is settled.  Never joins, so the thread may call it itself (a
        guardrail breach rolls back from ``on_comparison``)."""
        with self._cond:
            self._running = False
            self._cond.notify_all()

    def shutdown(self, drain: bool = True) -> None:
        """Stop intake, settle or drop what is pending, join the thread.

        With ``drain=True`` the thread compares everything pending
        first; with ``drain=False`` pending rows are dropped uncounted.
        """
        with self._cond:
            self._running = False
            if not drain:
                self._pending = []
            self._cond.notify_all()
        self._thread.join(timeout=10.0)
        self.stats.set_gauge("queue_depth", 0)

    # ------------------------------------------------------------------

    def mirror_many(self, rows: Sequence[MirroredRow]) -> int:
        """Queue a batch's mirrored rows; returns how many were accepted.

        Rows beyond :data:`MAX_PENDING_ROWS` pending are shed (counted in
        ``report.shed`` and ``requests_shed``): shadowing never applies
        backpressure to real traffic.  After :meth:`stop` nothing is
        accepted.
        """
        with self._cond:
            if not self._running:
                return 0
            accepted = min(len(rows), MAX_PENDING_ROWS - len(self._pending))
            if accepted:
                self._pending.extend(rows[:accepted])
                self._cond.notify_all()
            depth = len(self._pending)
        shed = len(rows) - accepted
        if shed:
            self.report.note_shed(shed)
            self.stats.incr("requests_shed", shed)
        self.stats.set_gauge("queue_depth", depth)
        return accepted

    def drain(self, timeout: float = 10.0) -> bool:
        """Wait until every accepted row is settled (tests, day steps).

        A batch is settled once it is compared (or shed) and its
        ``on_comparison`` hook has returned.
        """
        with self._cond:
            return self._cond.wait_for(
                lambda: not self._pending and not self._comparing, timeout
            )

    # ------------------------------------------------------------------

    def _run(self) -> None:
        cond = self._cond
        while True:
            with cond:
                cond.wait_for(lambda: self._pending or not self._running)
                if not self._pending:
                    return
                batch, self._pending = self._pending, []
                self._comparing = True
            started = time.perf_counter()
            try:
                results = self._detector.evaluate_vectors(
                    np.asarray([row[0] for row in batch], dtype=float),
                    [row[1] for row in batch],
                )
            except Exception:  # noqa: BLE001 — mirrored, never compared
                self.report.note_shed(len(batch))
            else:
                self.stats.observe_stage(
                    "shadow", (time.perf_counter() - started) * 1000.0
                )
                self.report.record_many(batch, results)
                if self.on_comparison is not None:
                    try:
                        self.on_comparison()
                    except Exception:  # noqa: BLE001 — keep the thread alive
                        pass
            # Settled only now, so a drain also waits out the guardrail
            # check this batch triggered.
            with cond:
                self._comparing = False
                cond.notify_all()
