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
scores all inner wires with *one* call to the inner service's
``score_rows`` — the envelope's proven rows ride beside the wires, so
the batch core does not parse them again, and it hands back the model
and :class:`DetectionResult` behind each verdict — then folds the
events into their sessions with *one* fold (``_fold_rows``): every
event in arrival order under one lock span, then the durable log.
``observe_wire`` is a batch of one, so there is a single
implementation of each step.  Scoring reads no session state
and folding reads no scoring state, which is why any split of a wire
sequence into batches leaves exactly the observations, counters and
tracker state that one-at-a-time scoring would.

**Rows, and where they become objects.**  The fold yields one
:data:`EventRow` per event — ``(session_id, verdict, session_flagged,
session_risk, revision, event_seq, session_created)`` — whose verdict
still carries the id the inner service scored it under.  The front end
takes the rows themselves (:meth:`SessionScoringService.observe_rows`)
and answers most of them from a response template, so a batch it
serves builds no per-event object at all.  A
:class:`SessionObservation`, and a follow-up's re-labelled verdict in
it, is built from a row (:meth:`SessionObservation.from_row`) only
where one escapes: the library calls (``observe_many`` and everything
on top of it) and the front end's full render.  Those
objects live as long as their response and are built by ``__dict__``
swap, as :mod:`repro.runtime.batch` builds verdicts.  What an event
leaves behind is built for being kept: an
:class:`~repro.sessions.tracker.EventRecord` is a tuple and a
:class:`~repro.sessions.tracker.SessionState` has slots and no sets
until a second distinct vector or UA key shows up.

Cluster-flip detection needs the *predicted cluster*, which the inner
services' :class:`Verdict` deliberately omits.  It is read from the
detection result the inner service scored the event with — the cached
result on a hit, the model's (or the shard's decoded slab row) on a
miss — so a never-seen fingerprint costs one batched model call.  Every
event of a session is routed to one rollout arm, by the session id; a
stage change or a model swap can still move it to another model, and
since cluster labels of two models do not compare, the session's
cluster is then re-based, not flipped.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from datetime import date
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.detection import DetectionResult
from repro.fingerprint.features import N_FEATURES
from repro.service.scoring import Verdict
from repro.sessions.envelope import EnvelopeParser
from repro.sessions.revision import (
    RevisionReason,
    VerdictRevision,
    classify_revision,
)
from repro.sessions.store import SessionEventLog
from repro.sessions.tracker import EventRecord, SessionState, SessionTracker
from repro.traffic.events import EventType

__all__ = ["EventRow", "SessionObservation", "SessionScoringService"]

#: One folded event: ``(session_id, verdict, session_flagged,
#: session_risk, revision, event_seq, session_created)``.  The verdict
#: keeps the id it was scored under; ``session_id`` is the one answered.
EventRow = Tuple[
    str, Verdict, bool, Optional[int], Optional[VerdictRevision], int, bool
]

# ``EventType.value`` is an enum property; a dict read is a fifth of it.
_EVENT_TYPE_NAMES = {event_type: event_type.value for event_type in EventType}
_tuple_new = tuple.__new__


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

    @staticmethod
    def from_row(row: EventRow) -> "SessionObservation":
        """The observation a folded :data:`EventRow` stands for."""
        session_id, verdict = row[0], row[1]
        # Report under the real session id, whatever id scored inside.
        if verdict.session_id != session_id:
            verdict = _relabelled(verdict, session_id)
        return _observation(verdict, *row[2:])


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


def _unscored(verdict: Verdict, event_seq: int) -> EventRow:
    """The row of an event that never reached a session."""
    return (verdict.session_id, verdict, False, None, None, event_seq, False)


def _relabelled(verdict: Verdict, session_id: str) -> Verdict:
    """``verdict`` under another session id, every other field kept."""
    state = verdict.__dict__.copy()
    state["session_id"] = session_id
    relabelled = _new(verdict.__class__)
    _set_attr(relabelled, "__dict__", state)
    return relabelled


class SessionScoringService:
    """Stateful, revisable scoring over an inner one-shot service.

    Parameters
    ----------
    inner:
        A started :class:`ScoringService`, :class:`RuntimeScoringService`
        or :class:`~repro.cluster.router.ClusterRouter`; all
        single-vector scoring goes through its ``score_rows``, which
        hands back the detection result behind each verdict.
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
        validator = getattr(inner, "validator", None)
        self._envelopes = EnvelopeParser(getattr(validator, "expected_features", N_FEATURES))
        # Counters for /metrics.
        self.events_total = 0
        self.revisions_total = 0
        self.escalations_total = 0
        self.revision_reasons: Dict[str, int] = {
            reason.value: 0 for reason in RevisionReason
        }

    # ------------------------------------------------------------------
    # clock

    def _clock(self) -> float:
        """Event-time clock for the default tracker.

        Tracking TTLs in *event* time (the max timestamp observed) keeps
        eviction deterministic under replay: a benchmark replaying a day
        of traffic in two seconds still ages sessions by their own
        clock, not the host's.  A client sets each ``ts``, so the clock
        never moves past the wall clock: one far-future event would
        otherwise expire every live session on its next touch.
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
        from_row = SessionObservation.from_row
        return [from_row(row) for row in self.observe_rows(wires, day)]

    def observe_rows(
        self, wires: Sequence[bytes], day: Optional[date] = None
    ) -> List[EventRow]:
        """:meth:`observe_many` as rows (what the async front end calls).

        Every envelope is parsed, the parsed ones scored in one inner
        call and folded; a malformed one reaches neither.
        """
        rows: List[Optional[EventRow]] = [None] * len(wires)
        indices: List[int] = []
        events: List[tuple] = []
        inner_wires: List[bytes] = []
        inner_rows: List[tuple] = []
        parse = self._envelopes.parse_row
        for index, wire in enumerate(wires):
            try:
                event, scored_as, row = parse(wire)
            except ValueError as exc:
                rows[index] = _unscored(
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
            inner_rows.append(row)
        found: list = []
        verdicts = self.inner.score_rows(inner_wires, inner_rows, found, day=day)
        for index, row in zip(indices, self._fold_rows(events, verdicts, found)):
            rows[index] = row
        return rows  # type: ignore[return-value]

    def observe_wire(self, wire: bytes, day: Optional[date] = None) -> SessionObservation:
        """Score one event-envelope payload: a batch of one."""
        return self.observe_many([wire], day=day)[0]

    def _fold_rows(
        self, events: Sequence[tuple], verdicts: Sequence[Verdict], found
    ) -> List[EventRow]:
        """The fold: one :data:`EventRow` per :func:`event_fields` tuple.

        ``found[i]`` is the ``(model, result)`` behind ``verdicts[i]``,
        or ``None``.  A session's clusters compare only within one
        model: a move to another is a re-base, not a flip.

        The only step that touches session state; ``events`` are folded
        in the order given, which for any one session must be the order
        its events arrived in.  One span covers the whole batch: the
        service lock, and inside it the tracker's — the lock order is
        always service → tracker.  The tracker's clock is still read
        per event, because the batch's own events move event time and
        may expire a session between two of them.  The durable log is
        written after the span.
        """
        tracker = self.tracker
        touch = tracker._touch_locked
        clock = tracker._clock
        max_events = tracker.max_events_per_session
        ceiling = time.time()  # event time never passes the wall clock
        logged: Optional[list] = None if self.event_log is None else []
        rows: List[EventRow] = []
        append = rows.append
        folded = 0
        with self._lock, tracker._lock:
            try:
                for event, verdict, scored in zip(events, verdicts, found):
                    session_id, event_type, seq, timestamp, _, values, _ = event
                    # Event time moves for every parsed event, scored or not.
                    step = timestamp if timestamp < ceiling else ceiling
                    if step > self._virtual_now:
                        self._virtual_now = step
                    if not verdict.accepted:
                        append(_unscored(verdict, seq))
                        continue
                    if scored is not None:
                        model, result = scored
                        ua_key = result.ua_key
                        cluster = result.predicted_cluster
                    else:
                        model = result = ua_key = cluster = None
                    state, created = touch(session_id, clock())
                    folded += 1
                    if model != state.last_model:
                        state.last_cluster = None
                    revision = self._reconcile_locked(
                        state, event, verdict, result, ua_key
                    )
                    state.record_event(
                        _tuple_new(
                            EventRecord,
                            (
                                seq,
                                _EVENT_TYPE_NAMES[event_type],
                                timestamp,
                                verdict.flagged,
                                verdict.risk_factor,
                                cluster,
                                ua_key,
                            ),
                        ),
                        tuple(values),
                        max_events,
                    )
                    state.last_model = model
                    if logged is not None:
                        logged.append((event, verdict, ua_key))
                    append(
                        (
                            session_id,
                            verdict,
                            state.flagged,
                            state.risk_factor,
                            revision,
                            seq,
                            created,
                        )
                    )
            finally:
                self.events_total += folded
        if logged:
            append_row = self.event_log.append
            for event, verdict, ua_key in logged:
                append_row(
                    session_id=event[0],
                    event_type=_EVENT_TYPE_NAMES[event[1]],
                    seq=event[2],
                    timestamp=event[3],
                    ua_key=ua_key if ua_key is not None else "",
                    values=event[5],
                    flagged=verdict.flagged,
                    risk=verdict.risk_factor,
                )
        return rows

    def _reconcile_locked(
        self,
        state: SessionState,
        event: tuple,
        verdict: Verdict,
        result: Optional[DetectionResult],
        ua_key: Optional[str],
    ) -> Optional[VerdictRevision]:
        """Fold an event verdict (its :func:`event_fields`) into the
        sticky session verdict."""
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
            session_id=event[0],
            seq=event[2],
            event_type=_EVENT_TYPE_NAMES[event[1]],
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

    # ------------------------------------------------------------------
    # introspection

    def session_snapshot(self, session_id: str) -> Optional[dict]:
        """The live state of one session (``GET /session/{id}``)."""
        state = self.tracker.peek(session_id)
        if state is None:
            return None
        with self._lock:
            return state.to_dict()

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

    def collect(self, out) -> None:
        """Report the layer's ``polygraph_session_*`` series into ``out``."""
        tracker_stats = self.tracker.stats()
        with self._lock:
            out.gauge("polygraph_session_active", tracker_stats["active_sessions"])
            out.counter("polygraph_session_events_total", self.events_total)
            out.counter("polygraph_session_revisions_total", self.revisions_total)
            out.counter("polygraph_session_escalations_total", self.escalations_total)
            for kind in ("ttl", "capacity"):
                evicted = tracker_stats[f"evicted_{kind}"]
                out.counter("polygraph_session_evictions_total", evicted, kind=kind)
            for reason, count in sorted(self.revision_reasons.items()):
                name = "polygraph_session_revision_reason_total"
                out.counter(name, count, reason=reason)
