"""Session-stream scoring: per-event verdicts with mid-session revision.

:class:`SessionScoringService` wraps any scoring service — the
per-request :class:`~repro.service.scoring.ScoringService`, the batched
:class:`~repro.runtime.service.RuntimeScoringService` or the sharded
cluster's :class:`~repro.cluster.router.ClusterRouter` — and adds
session state on top.  Whatever the deployment, the state has one home:
one tracker, one lock, one event log, one ``--session-max`` bound.  The
contract that keeps it honest:

* **First-event parity.**  The first event of a session is scored by
  forwarding its *exact* single-vector wire bytes through the inner
  service — the same ingest, the same cache, the same model call — so
  its verdict is bit-identical to today's one-shot path.
* **Follow-up events bypass the dedup window, not validation.**  The
  inner dedup window exists to reject replayed session ids; a second
  *event* of a live session is not a replay.  Follow-ups are scored
  under a derived id (``sid@seq``, hashed if over the length cap),
  which the verdict cache ignores entirely — its keys are
  ``(values, ua_key)`` — so repeat fingerprints stay cache-hits.
* **Sticky verdicts.**  A session once flagged stays flagged and its
  risk factor only ratchets up; clean follow-ups are reported as
  informational ``flag_cleared`` revisions without lowering anything.

The unit of work is the **batch**: :meth:`SessionScoringService.observe_many`
parses every envelope (once — see :mod:`repro.sessions.envelope`),
scores all inner wires with *one* call to the inner service's widest
interface (the router's ``score_many`` behind ``--shards``), then folds
the events into their sessions with *one*
:meth:`SessionScoringService.fold_many`: the cluster lookups first,
without a lock, then every event in arrival order under one lock span,
then the durable log.  ``observe_wire`` is a batch of one,
``observe_event`` enters at the scoring step and ``fold`` is
``fold_many`` of one, so there is a single implementation of each
step.  Scoring reads no session state and folding reads no scoring
state, which is why any split of a wire sequence into batches leaves
exactly the observations, counters and tracker state that
one-at-a-time scoring would.

What an event leaves behind is built for being kept: an
:class:`~repro.sessions.tracker.EventRecord` is a tuple and a
:class:`~repro.sessions.tracker.SessionState` has slots and no sets
until a second distinct vector or UA key shows up.  What lives only as
long as its response — the observation, a follow-up's re-labelled
verdict — is built by ``__dict__`` swap, as :mod:`repro.runtime.batch`
builds verdicts.

Cluster-flip detection needs the *predicted cluster*, which the inner
services' :class:`Verdict` deliberately omits.  A bounded memo maps
``(values, user_agent)`` to the pipeline's full
:class:`DetectionResult`; coarse fingerprints are low-cardinality, so
in steady state this costs one extra model call per distinct surface,
not per event.  The memo belongs to one model generation: each batch
takes one detection snapshot and starts a fresh memo when the
generation has moved, so a revision never compares a cluster from the
old model with one from the new.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from datetime import date
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.detection import DetectionResult
from repro.service.scoring import Verdict
from repro.sessions.envelope import EnvelopeParser, inner_wire
from repro.sessions.revision import (
    RevisionReason,
    VerdictRevision,
    classify_revision,
)
from repro.sessions.store import SessionEventLog
from repro.sessions.tracker import EventRecord, SessionState, SessionTracker
from repro.traffic.events import SessionEvent

__all__ = ["SessionObservation", "SessionScoringService"]

_DETECT_MEMO_LIMIT = 8192


@dataclass(frozen=True)
class SessionObservation:
    """What the session layer says about one observed event."""

    verdict: Verdict  # the per-event verdict (first event: bit-identical)
    session_flagged: bool  # sticky session verdict after this event
    session_risk: Optional[int]
    revision: Optional[VerdictRevision]
    event_seq: int
    session_created: bool

    def to_dict(self) -> dict:
        return {
            "session_id": self.verdict.session_id,
            "accepted": self.verdict.accepted,
            "event_flagged": self.verdict.flagged,
            "event_risk": self.verdict.risk_factor,
            "reject_reason": self.verdict.reject_reason,
            "session_flagged": self.session_flagged,
            "session_risk": self.session_risk,
            "revision": None if self.revision is None else self.revision.to_dict(),
            "event_seq": self.event_seq,
            "session_created": self.session_created,
        }


# Frozen-dataclass construction by ``__dict__`` swap — the idiom, and
# the reason, are :mod:`repro.runtime.batch`'s.  Only for objects that
# live as long as their response: a retained one would keep a private
# dict where a class-built one shares its keys.
_new = object.__new__
_set_attr = object.__setattr__


def _observation(
    verdict: Verdict,
    session_flagged: bool,
    session_risk: Optional[int],
    revision: Optional[VerdictRevision],
    event_seq: int,
    session_created: bool,
) -> SessionObservation:
    observation = _new(SessionObservation)
    _set_attr(
        observation,
        "__dict__",
        {
            "verdict": verdict,
            "session_flagged": session_flagged,
            "session_risk": session_risk,
            "revision": revision,
            "event_seq": event_seq,
            "session_created": session_created,
        },
    )
    return observation


def _unscored(verdict: Verdict, event_seq: int) -> SessionObservation:
    """The observation of an event that never reached a session."""
    return _observation(verdict, False, None, None, event_seq, False)


def _relabelled(verdict: Verdict, session_id: str) -> Verdict:
    """``verdict`` under another session id, every other field kept."""
    state = verdict.__dict__.copy()
    state["session_id"] = session_id
    relabelled = _new(verdict.__class__)
    _set_attr(relabelled, "__dict__", state)
    return relabelled


def _score_wires(
    inner, wires: Sequence[bytes], day: Optional[date] = None
) -> List[Verdict]:
    """Score inner wires with one call to ``inner``'s widest interface.

    ``score_many`` (the cluster router's bulk path) takes no ``day``;
    a dated replay, and any service without it, goes wire by wire.
    """
    score_many = getattr(inner, "score_many", None)
    if score_many is not None and day is None:
        return score_many(wires)
    return [inner.score_wire(wire, day=day) for wire in wires]


class SessionScoringService:
    """Stateful, revisable scoring over an inner one-shot service.

    Parameters
    ----------
    inner:
        A started :class:`ScoringService`, :class:`RuntimeScoringService`
        or :class:`~repro.cluster.router.ClusterRouter`; all
        single-vector scoring goes through it unchanged, and its
        ``polygraph`` answers the cluster lookups.
    tracker:
        Session state bounds; a default tracker is created if omitted
        (``ttl_seconds`` then applies to it).
    event_log:
        Optional :class:`SessionEventLog` for durable per-event rows.
    """

    def __init__(
        self,
        inner,
        tracker: Optional[SessionTracker] = None,
        event_log: Optional[SessionEventLog] = None,
        ttl_seconds: float = 1800.0,
        max_sessions: int = 100_000,
    ) -> None:
        self.inner = inner
        self._virtual_now = 0.0
        if tracker is None:
            tracker = SessionTracker(
                max_sessions=max_sessions,
                ttl_seconds=ttl_seconds,
                clock=self._clock,
            )
        self.tracker = tracker
        self.event_log = event_log
        self._lock = threading.Lock()
        self._envelopes = EnvelopeParser()
        self._detect_memo: Dict[tuple, Optional[DetectionResult]] = {}
        self._detect_generation: Optional[int] = None
        # Counters for /metrics.
        self.events_total = 0
        self.revisions_total = 0
        self.escalations_total = 0
        self.revision_reasons: Dict[str, int] = {
            reason.value: 0 for reason in RevisionReason
        }
        # Sticky per-session fusion provenance (populated only when the
        # inner service has a fusion arm attached); insertion-ordered so
        # capacity eviction drops the oldest sessions first.
        self._fusion_by_sid: Dict[str, dict] = {}

    # ------------------------------------------------------------------
    # clock

    def _clock(self) -> float:
        """Event-time clock for the default tracker.

        Tracking TTLs in *event* time (the max timestamp observed) keeps
        eviction deterministic under replay: a benchmark replaying a day
        of traffic in two seconds still ages sessions by their own
        clock, not the host's.
        """
        return self._virtual_now

    # ------------------------------------------------------------------
    # scoring

    def observe_many(
        self, wires: Sequence[bytes], day: Optional[date] = None
    ) -> List[SessionObservation]:
        """Score a batch of event envelopes (``POST /event`` bodies).

        Equal, observation for observation and counter for counter, to
        calling :meth:`observe_wire` on each in turn.
        """
        observations: List[Optional[SessionObservation]] = [None] * len(wires)
        indices: List[int] = []
        events: List[SessionEvent] = []
        inner_wires: List[bytes] = []
        parse = self._envelopes.parse
        for index, wire in enumerate(wires):
            try:
                event, scored_as = parse(wire)
            except ValueError as exc:
                # Answered here: reaches neither the inner service nor the fold.
                observations[index] = _unscored(
                    Verdict(
                        session_id="",
                        accepted=False,
                        flagged=False,
                        risk_factor=None,
                        reject_reason=f"malformed_event: {str(exc)[:80]}",
                        latency_ms=0.0,
                    ),
                    -1,
                )
                continue
            indices.append(index)
            events.append(event)
            inner_wires.append(scored_as)
        verdicts = _score_wires(self.inner, inner_wires, day)
        for index, observation in zip(indices, self.fold_many(events, verdicts)):
            observations[index] = observation
        return observations  # type: ignore[return-value]

    def observe_wire(self, wire: bytes, day: Optional[date] = None) -> SessionObservation:
        """Score one event-envelope payload: a batch of one."""
        return self.observe_many([wire], day=day)[0]

    def observe_event(
        self, event: SessionEvent, day: Optional[date] = None
    ) -> SessionObservation:
        """Score one already-parsed event."""
        (verdict,) = _score_wires(self.inner, [inner_wire(event)], day)
        return self.fold(event, verdict)

    def fold(self, event: SessionEvent, verdict: Verdict) -> SessionObservation:
        """Reconcile one scored event: a batch of one."""
        return self.fold_many([event], [verdict])[0]

    def fold_many(
        self, events: Sequence[SessionEvent], verdicts: Sequence[Verdict]
    ) -> List[SessionObservation]:
        """Reconcile scored events with their sessions' sticky verdicts.

        The only step that touches session state; ``events`` are folded
        in the order given, which for any one session must be the order
        its events arrived in.  The cluster lookups come first and take
        no lock (a memo miss is a model call); then one lock span covers
        the whole batch, and the durable log is written after it.
        """
        results = self._detect_many(
            [
                (event.values, event.user_agent) if verdict.accepted else None
                for event, verdict in zip(events, verdicts)
            ]
        )
        tracker = self.tracker
        get_or_create = tracker.get_or_create
        max_events = tracker.max_events_per_session
        logged: Optional[list] = None if self.event_log is None else []
        observations: List[SessionObservation] = []
        with self._lock:
            for event, verdict, result in zip(events, verdicts, results):
                # Event time moves for every parsed event, scored or not.
                if event.timestamp > self._virtual_now:
                    self._virtual_now = event.timestamp
                if not verdict.accepted:
                    observations.append(_unscored(verdict, event.seq))
                    continue
                session_id = event.session_id
                # Report under the real session id, whatever id scored inside.
                if verdict.session_id != session_id:
                    verdict = _relabelled(verdict, session_id)
                if result is not None:
                    ua_key = result.ua_key
                    cluster = result.predicted_cluster
                else:
                    ua_key = cluster = None
                state, created = get_or_create(session_id)
                self.events_total += 1
                revision = self._reconcile_locked(state, event, verdict, result, ua_key)
                state.record_event(
                    EventRecord(
                        event.seq,
                        event.event_type.value,
                        event.timestamp,
                        verdict.flagged,
                        verdict.risk_factor,
                        cluster,
                        ua_key,
                    ),
                    tuple(event.values),
                    max_events,
                )
                if verdict.fused_flagged is not None:
                    self._record_fusion_locked(session_id, verdict)
                if logged is not None:
                    logged.append((event, verdict, ua_key))
                observations.append(
                    _observation(
                        verdict,
                        state.flagged,
                        state.risk_factor,
                        revision,
                        event.seq,
                        created,
                    )
                )
        if logged:
            append = self.event_log.append
            for event, verdict, ua_key in logged:
                append(
                    session_id=event.session_id,
                    event_type=event.event_type.value,
                    seq=event.seq,
                    timestamp=event.timestamp,
                    ua_key=ua_key if ua_key is not None else "",
                    values=event.values,
                    flagged=verdict.flagged,
                    risk=verdict.risk_factor,
                )
        return observations

    def _reconcile_locked(
        self,
        state: SessionState,
        event: SessionEvent,
        verdict: Verdict,
        result: Optional[DetectionResult],
        ua_key: Optional[str],
    ) -> Optional[VerdictRevision]:
        """Fold an event verdict into the sticky session verdict."""
        if state.event_count == 0:
            # First event: the session verdict *is* the event verdict.
            state.flagged = verdict.flagged
            state.risk_factor = verdict.risk_factor
            return None
        reason = classify_revision(
            prior_flagged=state.flagged,
            prior_risk=state.risk_factor,
            prior_cluster=state.last_cluster,
            prior_ua_key=state.last_ua_key,
            event_flagged=verdict.flagged,
            event_risk=verdict.risk_factor,
            result=result,
            event_ua_key=ua_key,
        )
        if reason is None:
            return None
        old_flagged, old_risk = state.flagged, state.risk_factor
        revision = None
        if reason in (
            RevisionReason.CLUSTER_FLIP,
            RevisionReason.UA_CHANGE,
            RevisionReason.FLAG_RAISED,
            RevisionReason.RISK_INCREASE,
        ):
            # Escalate: flag sticks, risk ratchets.  A surface change
            # mid-session is suspicious even when both vectors are
            # individually clean, so cluster flips / UA changes flag the
            # session regardless of the event's own verdict.
            state.flagged = True
            candidates = [r for r in (old_risk, verdict.risk_factor) if r is not None]
            state.risk_factor = max(candidates) if candidates else old_risk
        detail = ""
        if reason is RevisionReason.CLUSTER_FLIP and result is not None:
            detail = (
                f"cluster {state.last_cluster} -> {result.predicted_cluster}"
            )
        elif reason is RevisionReason.UA_CHANGE:
            detail = f"ua_key {state.last_ua_key} -> {ua_key}"
        revision = VerdictRevision(
            session_id=event.session_id,
            seq=event.seq,
            event_type=event.event_type.value,
            reason=reason,
            old_flagged=old_flagged,
            new_flagged=state.flagged,
            old_risk=old_risk,
            new_risk=state.risk_factor,
            detail=detail,
        )
        state.revision_count += 1
        self.revisions_total += 1
        self.revision_reasons[reason.value] += 1
        if revision.escalating:
            state.escalation_count += 1
            self.escalations_total += 1
        return revision

    def _record_fusion_locked(self, session_id: str, verdict: Verdict) -> None:
        """Fold one fused verdict into the session's sticky fusion state.

        ``fused_flagged`` sticks once true (mirroring the session
        verdict's ratchet); the cell/score fields track the latest
        event so operators see the current agreement, not a stale one.
        """
        previous = self._fusion_by_sid.pop(session_id, None)
        entry = {
            "fused_flagged": bool(verdict.fused_flagged)
            or bool(previous and previous["fused_flagged"]),
            "cell": verdict.fusion_cell,
            "second_probability": verdict.second_probability,
            "second_lift": verdict.second_lift,
        }
        self._fusion_by_sid[session_id] = entry
        while len(self._fusion_by_sid) > self.tracker.max_sessions:
            self._fusion_by_sid.pop(next(iter(self._fusion_by_sid)))

    def _detect_many(
        self, keys: Sequence[Optional[tuple]]
    ) -> List[Optional[DetectionResult]]:
        """Full detection results for cluster-flip tracking.

        ``keys[i]`` is an accepted event's ``(values, user_agent)``, or
        ``None`` for an event that gets no result.  The whole batch is
        decided by one detector snapshot, memoized per model generation.
        """
        if not any(keys):
            return [None] * len(keys)
        try:
            generation, detector = self.inner.polygraph.detection_snapshot()
        except Exception:
            return [None] * len(keys)
        with self._lock:
            if generation != self._detect_generation:
                self._detect_memo = {}
                self._detect_generation = generation
            memo = self._detect_memo
        results: List[Optional[DetectionResult]] = []
        for key in keys:
            if key is None:
                results.append(None)
                continue
            if key in memo:
                results.append(memo[key])
                continue
            values, user_agent = key
            try:
                result = detector.evaluate_vector(np.asarray(values), user_agent)
            except Exception:
                result = None
            with self._lock:
                if len(memo) >= _DETECT_MEMO_LIMIT:
                    memo.clear()
                memo[key] = result
            results.append(result)
        return results

    def _detect(self, values: Tuple[int, ...], user_agent: str):
        """One event's full detection result: a batch of one."""
        return self._detect_many([(values, user_agent)])[0]

    # ------------------------------------------------------------------
    # introspection

    def session_snapshot(self, session_id: str) -> Optional[dict]:
        """The live state of one session (``GET /session/{id}``)."""
        state = self.tracker.peek(session_id)
        if state is None:
            return None
        with self._lock:
            snapshot = state.to_dict()
            fusion = self._fusion_by_sid.get(session_id)
            if fusion is not None:
                snapshot["fused_verdict"] = dict(fusion)
            return snapshot

    def status_dict(self) -> dict:
        """Aggregate status (``GET /sessions`` and the CLI)."""
        tracker_stats = self.tracker.stats()
        with self._lock:
            status = {
                "active_sessions": tracker_stats["active_sessions"],
                "ttl_seconds": self.tracker.ttl_seconds,
                "max_sessions": self.tracker.max_sessions,
                "events_total": self.events_total,
                "revisions_total": self.revisions_total,
                "escalations_total": self.escalations_total,
                "revision_reasons": dict(self.revision_reasons),
                "evicted_ttl": tracker_stats["evicted_ttl"],
                "evicted_capacity": tracker_stats["evicted_capacity"],
            }
        if self.event_log is not None:
            status["event_log"] = self.event_log.stats()
        return status

    def metrics_lines(self) -> List[str]:
        """Prometheus-style ``polygraph_session_*`` lines."""
        tracker_stats = self.tracker.stats()
        with self._lock:
            lines = [
                "# TYPE polygraph_session_active gauge",
                f"polygraph_session_active {tracker_stats['active_sessions']}",
                "# TYPE polygraph_session_events_total counter",
                f"polygraph_session_events_total {self.events_total}",
                "# TYPE polygraph_session_revisions_total counter",
                f"polygraph_session_revisions_total {self.revisions_total}",
                "# TYPE polygraph_session_escalations_total counter",
                f"polygraph_session_escalations_total {self.escalations_total}",
                "# TYPE polygraph_session_evictions_total counter",
                "polygraph_session_evictions_total"
                f"{{kind=\"ttl\"}} {tracker_stats['evicted_ttl']}",
                "polygraph_session_evictions_total"
                f"{{kind=\"capacity\"}} {tracker_stats['evicted_capacity']}",
            ]
            lines.append("# TYPE polygraph_session_revision_reason_total counter")
            for reason, count in sorted(self.revision_reasons.items()):
                lines.append(
                    "polygraph_session_revision_reason_total"
                    f"{{reason=\"{reason}\"}} {count}"
                )
        return lines
