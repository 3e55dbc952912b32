"""Rolling per-session state.

:class:`SessionTracker` is the bounded, TTL-evicted map behind the
session scoring service: one :class:`SessionState` per live session id,
carrying the sticky verdict summary, incrementally-maintained feature
aggregates, and a bounded typed event log.  Bounds are hard on both
axes — ``max_sessions`` ids (LRU eviction) and ``ttl_seconds`` per id
(lazy expiry on access plus opportunistic sweeps of the stale end) —
so a web-scale event stream cannot grow the tracker without limit.

The clock is injectable (``clock=``) for deterministic tests and for
the benchmark's virtual-time replay.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

__all__ = ["EventRecord", "SessionState", "SessionTracker"]

# Opportunistic TTL sweep cadence: every N tracker touches.
_SWEEP_EVERY = 512


class EventRecord(NamedTuple):
    """One scored event, as kept in a session's bounded log.

    A tuple, not a dataclass: a session retains up to
    ``max_events_per_session`` of these, and a tuple of scalars costs
    one allocation, no per-field ``__setattr__`` and — once the
    collector has looked at it — no GC tracking.
    """

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


@dataclass(slots=True)
class SessionState:
    """Everything the service remembers about one live session.

    ``distinct_vectors`` / ``distinct_ua_keys`` are ``len(set(...))`` of
    what the session has shown, but almost every session shows one
    vector under one UA key, so the sets exist only from the *second*
    distinct value on: until then the one vector seen is
    ``last_values`` and the one UA key seen is ``_ua_seen``.
    """

    session_id: str
    created_at: float
    last_seen: float
    # Sticky verdict summary.
    flagged: bool = False
    risk_factor: Optional[int] = None
    # Last observed scoring context (cluster-flip / UA-change detection).
    last_cluster: Optional[int] = None
    last_ua_key: Optional[str] = None
    last_model: object = None  # the model whose label ``last_cluster`` is
    last_values: Optional[Tuple[int, ...]] = None
    # Incremental aggregates.
    event_count: int = 0
    flagged_events: int = 0
    distinct_vectors: int = 0
    distinct_ua_keys: int = 0
    revision_count: int = 0
    escalation_count: int = 0
    # Bounded typed event log (newest last; oldest dropped at the cap).
    events: List[EventRecord] = field(default_factory=list)
    _vector_set: Optional[set] = field(default=None, repr=False)
    _ua_set: Optional[set] = field(default=None, repr=False)
    # ``last_ua_key`` cannot stand in for it: an event without a UA key
    # resets that to ``None`` and is not counted.
    _ua_seen: Optional[str] = field(default=None, repr=False)

    def record_event(
        self, record: EventRecord, values: Tuple[int, ...], max_events: int
    ) -> None:
        """Fold one scored event into the aggregates and the log."""
        self.event_count += 1
        if record.flagged:
            self.flagged_events += 1
        vectors = self._vector_set
        if vectors is not None:
            if values not in vectors:
                vectors.add(values)
                self.distinct_vectors = len(vectors)
        elif self.distinct_vectors == 0:
            self.distinct_vectors = 1
        elif values != self.last_values:
            self._vector_set = {self.last_values, values}
            self.distinct_vectors = 2
        ua_key = record.ua_key
        if ua_key is not None:
            ua_keys = self._ua_set
            if ua_keys is not None:
                if ua_key not in ua_keys:
                    ua_keys.add(ua_key)
                    self.distinct_ua_keys = len(ua_keys)
            elif self.distinct_ua_keys == 0:
                self._ua_seen = ua_key
                self.distinct_ua_keys = 1
            elif ua_key != self._ua_seen:
                self._ua_set = {self._ua_seen, ua_key}
                self.distinct_ua_keys = 2
        self.last_cluster = record.predicted_cluster
        self.last_ua_key = ua_key
        self.last_values = values
        self.last_seen = record.timestamp
        self.events.append(record)
        if len(self.events) > max_events:
            del self.events[: len(self.events) - max_events]

    def to_dict(self) -> dict:
        """JSON-ready summary (the ``GET /session/{id}`` body)."""
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


class SessionTracker:
    """Bounded map of live sessions with TTL and LRU eviction.

    Thread-safe: the scoring service touches it from whatever thread a
    request arrives on.  A touch refreshes LRU recency; a
    session that outlives ``ttl_seconds`` without a new event is evicted
    lazily when next touched or during a periodic sweep.  The session
    service's batch fold takes ``_lock`` once and calls
    :meth:`_touch_locked` per event, always while holding its own lock
    first (service → tracker), never the other way round.
    """

    def __init__(
        self,
        max_sessions: int = 100_000,
        ttl_seconds: float = 1800.0,
        max_events_per_session: int = 32,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive")
        if max_events_per_session < 1:
            raise ValueError("max_events_per_session must be >= 1")
        self.max_sessions = max_sessions
        self.ttl_seconds = ttl_seconds
        self.max_events_per_session = max_events_per_session
        self._clock = clock if clock is not None else time.monotonic
        self._sessions: "OrderedDict[str, SessionState]" = OrderedDict()
        self._lock = threading.Lock()
        self._touches = 0
        self.evicted_ttl = 0
        self.evicted_capacity = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def _touch_locked(
        self, session_id: str, now: float
    ) -> Tuple[SessionState, bool]:
        """The live state for ``session_id`` at time ``now`` (created
        if absent: ``(state, created)``), with ``_lock`` held.  An
        expired entry counts as absent, so a returning session id past
        its TTL starts a fresh stream.

        The whole per-event step — TTL check, LRU touch, creation,
        capacity eviction and the sweep every ``_SWEEP_EVERY`` touches —
        so a caller folding a batch enters the lock once for all of it.
        """
        self._touches += 1
        if self._touches % _SWEEP_EVERY == 0:
            self._sweep_stale_locked(now)
        sessions = self._sessions
        state = sessions.get(session_id)
        if state is not None:
            if now - state.last_seen <= self.ttl_seconds:
                sessions.move_to_end(session_id)
                return state, False
            del sessions[session_id]
            self.evicted_ttl += 1
        state = SessionState(session_id=session_id, created_at=now, last_seen=now)
        sessions[session_id] = state
        while len(sessions) > self.max_sessions:
            sessions.popitem(last=False)
            self.evicted_capacity += 1
        return state, True

    def peek(self, session_id: str) -> Optional[SessionState]:
        """The live state without refreshing recency (``None`` if gone)."""
        now = self._clock()
        with self._lock:
            state = self._sessions.get(session_id)
            if state is None:
                return None
            if now - state.last_seen > self.ttl_seconds:
                del self._sessions[session_id]
                self.evicted_ttl += 1
                return None
            return state

    def _sweep_stale_locked(self, now: float) -> None:
        """The opportunistic sweep: expired sessions off the stale end.

        The map is in recency order, so the sessions idle longest sit
        at its head; pop while the head has expired and stop at the
        first live one.  The cost is the number evicted, not the number
        tracked — this runs under the lock every ``_SWEEP_EVERY``
        touches.  An expired session behind a live one (its last event
        carried an older timestamp than its neighbour's) waits for the
        lazy expiry on touch, or for :meth:`sweep`.
        """
        sessions = self._sessions
        while sessions:
            session_id, state = next(iter(sessions.items()))
            if now - state.last_seen <= self.ttl_seconds:
                break
            del sessions[session_id]
            self.evicted_ttl += 1

    def stats(self) -> Dict[str, int]:
        """Counters for metrics export."""
        with self._lock:
            return {
                "active_sessions": len(self._sessions),
                "evicted_ttl": self.evicted_ttl,
                "evicted_capacity": self.evicted_capacity,
            }
