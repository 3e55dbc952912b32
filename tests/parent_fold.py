"""The session fold as it stood before batches were folded at once.

A frozen copy of what one event used to go through — ``fold`` with its
two lock spans, a ``SessionState`` that allocates both of its sets when
the session opens, dataclass records built field by field — kept, like
``_parent_render_event``, as the reference the batch fold must equal
observation for observation, state for state and log row for log row.  Nothing here calls ``fold_many``.  (The copy
is exact, so it also re-labels a follow-up verdict from six fields and
drops the fusion and inferred-release ones; the differentials run over
inner services that never set them.)

Not a test module itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.service.scoring import Verdict
from repro.sessions.service import SessionObservation, SessionScoringService
from repro.sessions.tracker import _SWEEP_EVERY, SessionTracker
from repro.traffic.events import SessionEvent


@dataclass(frozen=True)
class ParentEventRecord:
    seq: int
    event_type: str
    timestamp: float
    flagged: bool
    risk_factor: Optional[int]
    predicted_cluster: Optional[int]
    ua_key: Optional[str]

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "event_type": self.event_type,
            "timestamp": self.timestamp,
            "flagged": self.flagged,
            "risk_factor": self.risk_factor,
            "predicted_cluster": self.predicted_cluster,
            "ua_key": self.ua_key,
        }


@dataclass
class ParentSessionState:
    session_id: str
    created_at: float
    last_seen: float
    flagged: bool = False
    risk_factor: Optional[int] = None
    last_cluster: Optional[int] = None
    last_ua_key: Optional[str] = None
    last_values: Optional[Tuple[int, ...]] = None
    event_count: int = 0
    flagged_events: int = 0
    distinct_vectors: int = 0
    distinct_ua_keys: int = 0
    revision_count: int = 0
    escalation_count: int = 0
    events: List[ParentEventRecord] = field(default_factory=list)
    _vector_set: set = field(default_factory=set, repr=False)
    _ua_set: set = field(default_factory=set, repr=False)

    def record_event(
        self, record: ParentEventRecord, values: Tuple[int, ...], max_events: int
    ) -> None:
        self.event_count += 1
        if record.flagged:
            self.flagged_events += 1
        if values not in self._vector_set:
            self._vector_set.add(values)
            self.distinct_vectors = len(self._vector_set)
        if record.ua_key is not None and record.ua_key not in self._ua_set:
            self._ua_set.add(record.ua_key)
            self.distinct_ua_keys = len(self._ua_set)
        self.last_cluster = record.predicted_cluster
        self.last_ua_key = record.ua_key
        self.last_values = values
        self.last_seen = record.timestamp
        self.events.append(record)
        if len(self.events) > max_events:
            del self.events[: len(self.events) - max_events]

    def to_dict(self) -> dict:
        return {
            "session_id": self.session_id,
            "created_at": self.created_at,
            "last_seen": self.last_seen,
            "flagged": self.flagged,
            "risk_factor": self.risk_factor,
            "event_count": self.event_count,
            "flagged_events": self.flagged_events,
            "distinct_vectors": self.distinct_vectors,
            "distinct_ua_keys": self.distinct_ua_keys,
            "revision_count": self.revision_count,
            "escalation_count": self.escalation_count,
            "events": [e.to_dict() for e in self.events],
        }


class _ParentTracker(SessionTracker):
    """The tracker, opening sessions with the frozen state class."""

    def get_or_create(self, session_id: str):
        now = self._clock()
        with self._lock:
            self._touches += 1
            if self._touches % _SWEEP_EVERY == 0:
                self._sweep_stale_locked(now)
            state = self._sessions.get(session_id)
            if state is not None:
                if now - state.last_seen > self.ttl_seconds:
                    del self._sessions[session_id]
                    self.evicted_ttl += 1
                    state = None
                else:
                    self._sessions.move_to_end(session_id)
            if state is not None:
                return state, False
            state = ParentSessionState(
                session_id=session_id, created_at=now, last_seen=now
            )
            self._sessions[session_id] = state
            while len(self._sessions) > self.max_sessions:
                self._sessions.popitem(last=False)
                self.evicted_capacity += 1
            return state, True


def _parent_unscored(verdict: Verdict, event_seq: int) -> SessionObservation:
    return SessionObservation(
        verdict=verdict,
        session_flagged=False,
        session_risk=None,
        revision=None,
        event_seq=event_seq,
        session_created=False,
    )


class ParentFoldService(SessionScoringService):
    """A session service whose every fold is the frozen per-event one."""

    def __init__(self, inner, *, ttl_seconds, max_sessions, event_log=None) -> None:
        super().__init__(inner, event_log=event_log)
        self.tracker = _ParentTracker(
            max_sessions=max_sessions, ttl_seconds=ttl_seconds, clock=self._clock
        )

    def fold_many(self, events, verdicts) -> List[SessionObservation]:
        return [self.fold(event, verdict) for event, verdict in zip(events, verdicts)]

    def fold(self, event: SessionEvent, verdict: Verdict) -> SessionObservation:
        with self._lock:
            if event.timestamp > self._virtual_now:
                self._virtual_now = event.timestamp
        if not verdict.accepted:
            return _parent_unscored(verdict, event.seq)
        if verdict.session_id != event.session_id:
            verdict = Verdict(
                session_id=event.session_id,
                accepted=verdict.accepted,
                flagged=verdict.flagged,
                risk_factor=verdict.risk_factor,
                reject_reason=verdict.reject_reason,
                latency_ms=verdict.latency_ms,
            )

        result = self._detect(event.values, event.user_agent)
        ua_key = result.ua_key if result is not None else None

        state, created = self.tracker.get_or_create(event.session_id)
        with self._lock:
            self.events_total += 1
            revision = self._reconcile_locked(state, event, verdict, result, ua_key)
            record = ParentEventRecord(
                seq=event.seq,
                event_type=event.event_type.value,
                timestamp=event.timestamp,
                flagged=verdict.flagged,
                risk_factor=verdict.risk_factor,
                predicted_cluster=(
                    result.predicted_cluster if result is not None else None
                ),
                ua_key=ua_key,
            )
            state.record_event(
                record, tuple(event.values), self.tracker.max_events_per_session
            )
            session_flagged = state.flagged
            session_risk = state.risk_factor
            if verdict.fused_flagged is not None:
                self._record_fusion_locked(event.session_id, verdict)
        if self.event_log is not None:
            self.event_log.append(
                session_id=event.session_id,
                event_type=event.event_type.value,
                seq=event.seq,
                timestamp=event.timestamp,
                ua_key=ua_key if ua_key is not None else "",
                values=event.values,
                flagged=verdict.flagged,
                risk=verdict.risk_factor,
            )
        return SessionObservation(
            verdict=verdict,
            session_flagged=session_flagged,
            session_risk=session_risk,
            revision=revision,
            event_seq=event.seq,
            session_created=created,
        )
