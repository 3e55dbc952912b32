"""Real-time scoring service.

Glues the pieces into the online path the paper deploys: wire payload →
validation → model verdict → (optional) persistence, with end-to-end
latency accounting against the Section 3 budget of 100ms.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from datetime import date
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.detection import DetectionResult
from repro.core.pipeline import BrowserPolygraph
from repro.coverage.tracker import vendor_of
from repro.service.ingest import IngestResult, PayloadValidator
from repro.service.log import COLLECT, SegmentLog
from repro.traffic.dataset import Dataset

__all__ = [
    "OVERLOADED_REASON",
    "ScoringService",
    "Verdict",
    "collect_verdicts",
]


@dataclass(frozen=True)
class Verdict:
    """The service's answer for one session.

    ``flagged`` / ``risk_factor`` are the cluster-distance verdict.
    The ``inferred_*`` fields carry nearest-release provenance only under
    ``unknown_ua_policy="infer"`` for sessions whose claimed UA was
    outside the trained table.
    """

    session_id: str
    accepted: bool
    flagged: bool
    risk_factor: Optional[int]
    reject_reason: Optional[str]
    latency_ms: float
    inferred_release: Optional[str] = None
    inferred_distance: Optional[int] = None

    @property
    def actionable(self) -> bool:
        """Whether the risk engine should consider this session."""
        return self.accepted and self.flagged


# The reject reason of a wire a service shed unscored; the front end
# answers it 503 with ``Retry-After``.  No service in this package sheds.
OVERLOADED_REASON = "overloaded"


def collect_verdicts(out, scored: int, flagged: int, rejects: Dict[str, int],
                     unknown_ua: Dict[str, int]) -> None:
    """Report what every scoring service counts into ``out``: sessions
    scored and flagged, rejects by reason, unknown releases by vendor."""
    out.counter("polygraph_sessions_scored", scored)
    out.counter("polygraph_sessions_flagged", flagged)
    out.counter("polygraph_payloads_rejected", sum(rejects.values()))
    for reason, count in sorted(rejects.items()):
        out.counter("polygraph_payloads_rejected_by_reason", count, reason=reason)
    for vendor, count in sorted(unknown_ua.items()):
        out.counter("polygraph_unknown_ua_total", count, vendor=vendor)


class ScoringService:
    """Validate, persist, and score payloads in real time.

    Parameters
    ----------
    polygraph:
        A fitted :class:`~repro.core.pipeline.BrowserPolygraph`.
    validator:
        Wire-contract enforcement; a default validator is created if
        omitted.
    log:
        Optional :class:`~repro.service.log.SegmentLog`; every accepted
        :meth:`score_wire` row is appended, so the next training window
        can be exported later.
    """

    def __init__(
        self,
        polygraph: BrowserPolygraph,
        validator: Optional[PayloadValidator] = None,
        log: Optional[SegmentLog] = None,
    ) -> None:
        if not polygraph.is_fitted:
            raise ValueError("ScoringService requires a fitted BrowserPolygraph")
        self.polygraph = polygraph
        self.validator = validator if validator is not None else PayloadValidator()
        self.log = log
        self.coverage = None
        self.scored_count = 0
        self.flagged_count = 0
        # Per-vendor unknown-UA volume, observable even without the
        # coverage subsystem attached (polygraph_unknown_ua_total).
        self.unknown_ua_counts: Dict[str, int] = {}

    def attach_coverage(self, tracker) -> "ScoringService":
        """Attach a :class:`~repro.coverage.tracker.CoverageTracker`.

        The tracker's known-release table is seeded from the current
        model and re-synced on every retrain, so its classification
        always matches the serving generation.
        """
        self.coverage = tracker
        generation, detector = self.polygraph.detection_snapshot()
        tracker.set_known_keys(
            detector.model.ua_to_cluster, generation=generation
        )
        self.polygraph.add_retrain_listener(
            lambda gen: self._sync_coverage(gen)
        )
        return self

    def _sync_coverage(self, generation: int) -> None:
        if self.coverage is None:
            return
        _, detector = self.polygraph.detection_snapshot()
        self.coverage.set_known_keys(
            detector.model.ua_to_cluster, generation=generation
        )

    def score_wire(self, wire: bytes, day: Optional[date] = None) -> Verdict:
        """The full online path for one request (a ``/collect``)."""
        return self._score_one(wire, day, self.log)[0]

    def score_rows(
        self, wires: Sequence[bytes], rows, found: list, day: Optional[date] = None
    ) -> List[Verdict]:
        """:meth:`score_wire` on each wire (``rows`` are not read), but
        unlogged: the session layer logs its events itself.  ``found``
        gets the ``(generation, result)`` behind each verdict."""
        generation = self.polygraph.model_generation
        verdicts: List[Verdict] = []
        found[:] = []
        for wire in wires:
            verdict, result = self._score_one(wire, day, None)
            verdicts.append(verdict)
            found.append(None if result is None else (generation, result))
        return verdicts

    def _score_one(
        self, wire: bytes, day: Optional[date], log: Optional[SegmentLog]
    ) -> Tuple[Verdict, Optional[DetectionResult]]:
        """One wire's verdict and the detection behind it (``None`` when
        the wire is rejected before the model sees it), its row appended
        to ``log`` when given."""
        started = time.perf_counter()
        ingest: IngestResult = self.validator.ingest_wire(wire)
        if not ingest.accepted:
            return Verdict(
                session_id="",
                accepted=False,
                flagged=False,
                risk_factor=None,
                reject_reason=ingest.reason.value if ingest.reason else "unknown",
                latency_ms=(time.perf_counter() - started) * 1000.0,
            ), None
        payload = ingest.payload
        result = self.polygraph.detect_payload(payload)
        self.scored_count += 1
        if result.flagged:
            self.flagged_count += 1
        if not result.known_ua:
            vendor = vendor_of(result.ua_key)
            self.unknown_ua_counts[vendor] = (
                self.unknown_ua_counts.get(vendor, 0) + 1
            )
        if self.coverage is not None:
            self.coverage.observe(result.ua_key, known=result.known_ua, day=day)
        if log is not None:
            log.append_many(
                [(payload.session_id, COLLECT, -1, time.time(), payload.user_agent,
                  result.ua_key, payload.values, result.flagged, result.risk_factor)],
                day,
            )
        return Verdict(
            session_id=payload.session_id,
            accepted=True,
            flagged=result.flagged,
            risk_factor=result.risk_factor,
            reject_reason=None,
            latency_ms=(time.perf_counter() - started) * 1000.0,
            inferred_release=result.inferred_release,
            inferred_distance=result.inferred_distance,
        ), result

    def retrain(
        self, dataset: Dataset, align_rare: bool = True, jobs: int = 1
    ) -> None:
        """Swap in a freshly trained model without stopping scoring.

        The pipeline installs the new model atomically under its swap
        lock: a request (or a runtime batch) that is mid-flight keeps
        scoring against the snapshot it started with, and every request
        accepted afterwards sees only the new model — never a mix.
        """
        self.polygraph.retrain(dataset, align_rare=align_rare, jobs=jobs)

    @property
    def flag_rate(self) -> float:
        """Share of scored sessions flagged so far."""
        return self.flagged_count / self.scored_count if self.scored_count else 0.0

    def collect(self, out) -> None:
        """Report the scoring counters (and coverage and the log, when
        attached)."""
        rejects = self.validator.quarantine.counts()
        collect_verdicts(
            out, self.scored_count, self.flagged_count,
            {reason.value: count for reason, count in rejects.items()},
            dict(self.unknown_ua_counts),
        )
        if self.coverage is not None:
            self.coverage.collect(out)
        if self.log is not None:
            self.log.collect(out)
