"""Multi-event session streams.

"Beyond the Crawl" shows fingerprinting scripts fire on real user
interactions — page load, focus, form fill, navigation — not just once
at load time.  This module turns the simulator's one-row-per-session
datasets into *event streams*: ordered sequences of
:class:`SessionEvent` with monotonic per-event timestamps, each
carrying the fingerprint vector the collection script would have
observed at that instant.

Scenario families:

* ``BENIGN_RECOLLECT`` — the same genuine browser re-collected on
  interaction; every event carries the identical vector (the common
  case, and the one the verdict cache makes nearly free).
* ``ENGINE_SWAP`` — a Category-3 fraud browser whose spoof is *clean*
  at page load but whose real engine leaks into a later collection:
  the API surface flips mid-session.  The single-vector path scores
  only the first event and misses this entirely.
* ``SPOOF_UPDATE`` — the operator updates the spoof profile
  mid-session; the surface changes while the claimed user-agent stays.
* ``HIJACK_HANDOFF`` — a session token replayed from a different
  browser mid-stream: both the user-agent and the vector change.

Wire format: an event envelope is the fingerprint wire payload plus
``ev`` (event type), ``seq`` (0-based position) and ``ts`` (epoch
seconds).  ``core_wire()`` strips the envelope back to the *exact*
single-vector payload bytes, which is what lets the session layer
guarantee bit-identical first-event verdicts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fingerprint.script import FingerprintPayload
from repro.traffic.dataset import Dataset

__all__ = [
    "MAX_EVENT_TIMESTAMP",
    "EventStreamConfig",
    "EventType",
    "SessionEvent",
    "SessionStream",
    "StreamScenario",
    "build_event_streams",
    "interleave_events",
]

# An envelope's ``ts`` is epoch seconds in [0, MAX_EVENT_TIMESTAMP):
# 1970-01-01 up to 10000-01-01.  Anything else — NaN, an infinity, 1e308
# — would move the session layer's event clock past every TTL for good.
MAX_EVENT_TIMESTAMP = 253_402_300_800.0

try:  # pragma: no cover - enum import kept local to avoid cycles
    from enum import Enum
except ImportError:  # pragma: no cover
    raise


class EventType(str, Enum):
    """What user interaction triggered a fingerprint collection."""

    PAGE_LOAD = "page_load"
    FOCUS = "focus"
    FORM_FILL = "form_fill"
    NAVIGATION = "navigation"
    RE_COLLECTION = "re_collection"


class StreamScenario(str, Enum):
    """Generative shape of one session's event stream."""

    SINGLE_SHOT = "single_shot"
    BENIGN_RECOLLECT = "benign_recollect"
    ENGINE_SWAP = "engine_swap"
    SPOOF_UPDATE = "spoof_update"
    HIJACK_HANDOFF = "hijack_handoff"


# Interaction types cycled through after the mandatory first page load.
_FOLLOWUP_CYCLE: Tuple[EventType, ...] = (
    EventType.FOCUS,
    EventType.FORM_FILL,
    EventType.NAVIGATION,
    EventType.RE_COLLECTION,
)

# Scenarios whose mid-session surface change the single-vector path
# cannot observe.
FRAUD_SCENARIOS = (
    StreamScenario.ENGINE_SWAP,
    StreamScenario.SPOOF_UPDATE,
    StreamScenario.HIJACK_HANDOFF,
)


@dataclass(frozen=True)
class SessionEvent:
    """One interaction-triggered fingerprint collection."""

    session_id: str
    event_type: EventType
    seq: int
    timestamp: float
    user_agent: str
    values: Tuple[int, ...]
    suspicious_globals: Tuple[str, ...] = ()

    def payload(self) -> FingerprintPayload:
        """The event's fingerprint as a plain collection payload."""
        return FingerprintPayload(
            session_id=self.session_id,
            user_agent=self.user_agent,
            values=tuple(self.values),
            service_time_ms=0.0,
            suspicious_globals=tuple(self.suspicious_globals),
        )

    def core_wire(self) -> bytes:
        """The exact single-vector wire bytes for this event.

        Byte-for-byte what :meth:`FingerprintPayload.to_wire` produces,
        which is the parity anchor: scoring a first event through
        ``core_wire()`` traverses the very same ingest bytes as the
        one-shot path.
        """
        return self.payload().to_wire()

    def to_wire(self) -> bytes:
        """Serialize the full event envelope."""
        body = {
            "sid": self.session_id,
            "ev": self.event_type.value,
            "seq": self.seq,
            "ts": round(float(self.timestamp), 3),
            "ua": self.user_agent,
            "f": list(self.values),
        }
        if self.suspicious_globals:
            body["g"] = list(self.suspicious_globals)
        return json.dumps(body, separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_wire(cls, wire: bytes) -> "SessionEvent":
        """Parse an event envelope (raises ``ValueError`` if malformed)."""
        try:
            body = json.loads(wire.decode("utf-8"))
            return cls(
                session_id=str(body["sid"]),
                event_type=EventType(str(body["ev"])),
                seq=_seq(body["seq"]),
                timestamp=_timestamp(body.get("ts", 0.0)),
                user_agent=str(body["ua"]),
                values=tuple(int(v) for v in body["f"]),
                suspicious_globals=tuple(
                    str(g) for g in body.get("g", ())
                ),
            )
        except (
            ValueError, KeyError, TypeError, OverflowError, RecursionError
        ) as exc:
            # OverflowError: "ts" an integer past float range, "seq" or
            # a feature value 1e999.  RecursionError: a body of nothing
            # but "[".  Either would otherwise escape as a 500 — and
            # take the rest of its batch with it.
            raise ValueError(f"malformed session event: {exc}") from exc


def _seq(value) -> int:
    seq = int(value)
    # The event log keeps ``seq`` in an int32 column: a wider one would
    # fail the seal, and every batch after it.
    if not -(1 << 31) <= seq < 1 << 31:
        raise ValueError(f"seq {seq} outside int32")
    return seq


def _timestamp(value) -> float:
    timestamp = float(value)
    if not 0.0 <= timestamp < MAX_EVENT_TIMESTAMP:  # NaN fails too
        raise ValueError(f"ts {timestamp!r} outside the event calendar")
    return timestamp


@dataclass(frozen=True)
class SessionStream:
    """All events of one session, in seq order."""

    session_id: str
    scenario: StreamScenario
    events: Tuple[SessionEvent, ...]
    row_index: int  # dataset row this stream was derived from

    @property
    def first(self) -> SessionEvent:
        return self.events[0]


@dataclass(frozen=True)
class EventStreamConfig:
    """Knobs of the stream generator.

    ``benign_multi_fraction`` of eligible legit rows become multi-event
    ``BENIGN_RECOLLECT`` streams; the fraud scenario counts pick victim
    rows deterministically.  Everything else stays ``SINGLE_SHOT``.
    """

    benign_multi_fraction: float = 0.2
    engine_swap_sessions: int = 8
    spoof_update_sessions: int = 4
    hijack_sessions: int = 4
    min_events: int = 3
    max_events: int = 6
    mean_gap_seconds: float = 20.0
    seed: int = 7

    def __post_init__(self) -> None:
        if not 0.0 <= self.benign_multi_fraction <= 1.0:
            raise ValueError("benign_multi_fraction must be in [0, 1]")
        if self.min_events < 2 or self.max_events < self.min_events:
            raise ValueError("need max_events >= min_events >= 2")
        if self.mean_gap_seconds <= 0:
            raise ValueError("mean_gap_seconds must be positive")


def _event_types(n_events: int) -> List[EventType]:
    types = [EventType.PAGE_LOAD]
    for i in range(n_events - 1):
        types.append(_FOLLOWUP_CYCLE[i % len(_FOLLOWUP_CYCLE)])
    return types


def _base_timestamp(dataset: Dataset, idx: int) -> float:
    if dataset.timestamps is not None:
        return float(dataset.timestamps[idx])
    day = dataset.days[idx].astype("datetime64[s]").astype(np.int64)
    return float(day)


def _row_events(
    dataset: Dataset,
    idx: int,
    n_events: int,
    rng: np.random.Generator,
    vectors: Sequence[Tuple[int, ...]],
    user_agents: Sequence[str],
) -> Tuple[SessionEvent, ...]:
    """Assemble one stream's events with a monotonic per-event clock."""
    session_id = str(dataset.session_ids[idx])
    base = _base_timestamp(dataset, idx)
    gaps = rng.exponential(scale=1.0, size=n_events - 1) + 0.5
    types = _event_types(n_events)
    events = []
    ts = base
    for seq in range(n_events):
        if seq:
            ts += float(gaps[seq - 1])
        events.append(
            SessionEvent(
                session_id=session_id,
                event_type=types[seq],
                seq=seq,
                timestamp=ts,
                user_agent=user_agents[seq],
                values=vectors[seq],
            )
        )
    return tuple(events)


def build_event_streams(
    dataset: Dataset,
    config: EventStreamConfig = EventStreamConfig(),
    donor_ok: Optional[Callable[[str, str], bool]] = None,
) -> List[SessionStream]:
    """Expand a one-row-per-session dataset into event streams.

    Fraud scenarios need a *donor* vector — the surface that leaks or
    takes over mid-session — which is drawn from another dataset row
    with a different ``vendor-version`` key (a different API-surface
    era by construction).  ``donor_ok(victim_ua_key, donor_ua_key)``
    optionally narrows donor choice further; benchmarks use it to pick
    donors from a different *cluster* so detectability is guaranteed
    rather than probable.

    Rows with ground truth prefer Category-3 victims for the fraud
    scenarios (their page-load surface matches the claimed user-agent,
    so the single-vector path scores them clean — the blind spot this
    subsystem exists to close); datasets without ground truth fall back
    to arbitrary rows.  Returns one :class:`SessionStream` per dataset
    row, in row order.
    """
    mean_gap = config.mean_gap_seconds
    rng = np.random.default_rng(config.seed)
    n = len(dataset)
    if n < 2:
        raise ValueError("need at least two rows to build event streams")

    ua_keys = [str(k) for k in dataset.ua_keys]
    rows_values: Dict[int, Tuple[int, ...]] = {}

    def values_of(idx: int) -> Tuple[int, ...]:
        cached = rows_values.get(idx)
        if cached is None:
            cached = tuple(int(v) for v in dataset.features[idx])
            rows_values[idx] = cached
        return cached

    # --- scenario assignment -----------------------------------------
    has_truth = bool((dataset.truth_kind != "").any())
    cat3 = (
        np.flatnonzero(dataset.truth_category == 3) if has_truth else
        np.array([], dtype=int)
    )
    legit = (
        np.flatnonzero(dataset.truth_kind == "legit") if has_truth else
        np.arange(n)
    )
    n_fraud = (
        config.engine_swap_sessions
        + config.spoof_update_sessions
        + config.hijack_sessions
    )
    victim_pool = cat3 if len(cat3) >= n_fraud else np.arange(n)
    victims = rng.permutation(victim_pool)[:n_fraud]
    scenario_by_row: Dict[int, StreamScenario] = {}
    cursor = 0
    for scenario, count in (
        (StreamScenario.ENGINE_SWAP, config.engine_swap_sessions),
        (StreamScenario.SPOOF_UPDATE, config.spoof_update_sessions),
        (StreamScenario.HIJACK_HANDOFF, config.hijack_sessions),
    ):
        for idx in victims[cursor : cursor + count]:
            scenario_by_row[int(idx)] = scenario
        cursor += count

    benign_candidates = np.array(
        [i for i in legit if int(i) not in scenario_by_row], dtype=int
    )
    n_benign = int(round(config.benign_multi_fraction * len(benign_candidates)))
    for idx in rng.permutation(benign_candidates)[:n_benign]:
        scenario_by_row[int(idx)] = StreamScenario.BENIGN_RECOLLECT

    # --- donor lookup -------------------------------------------------
    def pick_donor(idx: int, same_vendor: bool) -> Optional[int]:
        """A row with a different surface era (and optional constraints)."""
        key = ua_keys[idx]
        vendor = key.rsplit("-", 1)[0]
        order = rng.permutation(n)
        fallback = None
        for cand in order:
            cand = int(cand)
            dk = ua_keys[cand]
            if dk == key or values_of(cand) == values_of(idx):
                continue
            if donor_ok is not None and not donor_ok(key, dk):
                continue
            if same_vendor and not dk.startswith(vendor + "-"):
                if fallback is None:
                    fallback = cand
                continue
            return cand
        return fallback

    # --- assembly -----------------------------------------------------
    streams: List[SessionStream] = []
    for idx in range(n):
        scenario = scenario_by_row.get(idx, StreamScenario.SINGLE_SHOT)
        own = values_of(idx)
        ua = str(dataset.user_agents[idx])
        if scenario is StreamScenario.SINGLE_SHOT:
            events = _row_events(
                dataset, idx, 1, rng, [own], [ua]
            )
            streams.append(SessionStream(str(dataset.session_ids[idx]),
                                         scenario, events, idx))
            continue
        n_events = int(rng.integers(config.min_events, config.max_events + 1))
        vectors: List[Tuple[int, ...]] = [own] * n_events
        agents: List[str] = [ua] * n_events
        if scenario is not StreamScenario.BENIGN_RECOLLECT:
            donor = pick_donor(
                idx, same_vendor=scenario is StreamScenario.SPOOF_UPDATE
            )
            if donor is None:
                scenario = StreamScenario.BENIGN_RECOLLECT
            else:
                swap_at = int(rng.integers(1, n_events))
                for seq in range(swap_at, n_events):
                    vectors[seq] = values_of(donor)
                    if scenario is StreamScenario.HIJACK_HANDOFF:
                        agents[seq] = str(dataset.user_agents[donor])
        events = _row_events(dataset, idx, n_events, rng, vectors, agents)
        # Scale the unit-exponential gaps up to the configured mean.
        if mean_gap != 1.0:
            base = events[0].timestamp
            events = tuple(
                SessionEvent(
                    session_id=e.session_id,
                    event_type=e.event_type,
                    seq=e.seq,
                    timestamp=base + (e.timestamp - base) * mean_gap,
                    user_agent=e.user_agent,
                    values=e.values,
                    suspicious_globals=e.suspicious_globals,
                )
                for e in events
            )
        streams.append(
            SessionStream(str(dataset.session_ids[idx]), scenario, events, idx)
        )
    return streams


def interleave_events(streams: Sequence[SessionStream]) -> List[SessionEvent]:
    """All events of all streams in global timestamp order.

    Ties (possible when timestamps default to day precision) break by
    ``(session_id, seq)``, so per-session seq order — the ordering
    guarantee the tracker relies on — is always preserved.
    """
    events = [event for stream in streams for event in stream.events]
    events.sort(key=lambda e: (e.timestamp, e.session_id, e.seq))
    return events
