"""Payload validation and quarantine.

The collection endpoint faces the open internet: truncated bodies,
replayed payloads, fuzzed field types, oversized blobs.  None of that
may reach the scoring model.  :class:`PayloadValidator` enforces the
wire contract — the same constraints the paper's Section 3 budget sets —
and :class:`QuarantineLog` keeps the rejects for offline review
(malformed traffic is itself a weak fraud signal).
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from enum import Enum
from typing import Deque, List, Optional, Tuple

from repro.browsers.useragent import UserAgentError, parse_user_agent
from repro.fingerprint.features import N_FEATURES
from repro.fingerprint.script import FingerprintPayload, MAX_PAYLOAD_BYTES

__all__ = [
    "IngestResult",
    "MAX_FEATURE_VALUE",
    "MAX_SESSION_ID_LENGTH",
    "MAX_SUSPICIOUS_GLOBALS",
    "PayloadValidator",
    "QuarantineLog",
    "RejectReason",
]

MAX_FEATURE_VALUE = 10_000
MAX_SESSION_ID_LENGTH = 64
MAX_SUSPICIOUS_GLOBALS = 16

# Backwards-compatible aliases (pre-runtime module-private names).
_MAX_FEATURE_VALUE = MAX_FEATURE_VALUE
_MAX_SESSION_ID_LENGTH = MAX_SESSION_ID_LENGTH
_MAX_SUSPICIOUS_GLOBALS = MAX_SUSPICIOUS_GLOBALS


class RejectReason(str, Enum):
    """Why a payload was quarantined."""

    OVERSIZED = "oversized"
    MALFORMED = "malformed"
    WRONG_ARITY = "wrong_arity"
    VALUE_RANGE = "value_range"
    BAD_SESSION_ID = "bad_session_id"
    UNPARSEABLE_UA = "unparseable_ua"
    DUPLICATE = "duplicate"
    GLOBALS_OVERFLOW = "globals_overflow"


@dataclass(frozen=True)
class IngestResult:
    """Outcome of validating one wire payload."""

    accepted: bool
    payload: Optional[FingerprintPayload] = None
    reason: Optional[RejectReason] = None
    detail: str = ""


class QuarantineLog:
    """Bounded in-memory log of rejected payloads."""

    def __init__(self, capacity: int = 1000) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: Deque[Tuple[RejectReason, str]] = deque(maxlen=capacity)
        self._counts: Counter = Counter()

    def record(self, reason: RejectReason, detail: str) -> None:
        """Store one reject (oldest entries fall off at capacity)."""
        self._entries.append((reason, detail))
        self._counts[reason] += 1

    def entries(self) -> List[Tuple[RejectReason, str]]:
        """The retained rejects, oldest first."""
        return list(self._entries)

    def counts(self) -> dict:
        """Lifetime reject counts by reason (not capped)."""
        return dict(self._counts)

    @property
    def total_rejects(self) -> int:
        """Lifetime number of rejected payloads."""
        return sum(self._counts.values())


class PayloadValidator:
    """Enforces the wire contract on incoming payloads.

    Parameters
    ----------
    expected_features:
        Required feature-vector arity (28 for the deployed model).
    dedup_window:
        Number of recent session ids remembered for replay rejection;
        0 disables deduplication.
    quarantine:
        Where rejects are recorded; a fresh log is created if omitted.
    """

    def __init__(
        self,
        expected_features: int = N_FEATURES,
        dedup_window: int = 100_000,
        quarantine: Optional[QuarantineLog] = None,
    ) -> None:
        if expected_features < 1:
            raise ValueError("expected_features must be >= 1")
        self.expected_features = expected_features
        self.quarantine = quarantine if quarantine is not None else QuarantineLog()
        self._dedup_window = dedup_window
        self._seen_ids: Deque[str] = deque(maxlen=max(1, dedup_window))
        self._seen_set: set = set()
        self.accepted_count = 0

    # ------------------------------------------------------------------

    def ingest_wire(self, wire: bytes) -> IngestResult:
        """Validate one raw wire payload."""
        if len(wire) > MAX_PAYLOAD_BYTES:
            return self._reject(
                RejectReason.OVERSIZED, f"{len(wire)} bytes > {MAX_PAYLOAD_BYTES}"
            )
        try:
            payload = FingerprintPayload.from_wire(wire)
        except ValueError as exc:
            return self._reject(RejectReason.MALFORMED, str(exc)[:120])
        return self.ingest_payload(payload)

    def ingest_payload(self, payload: FingerprintPayload) -> IngestResult:
        """Validate an already-parsed payload."""
        if not payload.session_id or len(payload.session_id) > _MAX_SESSION_ID_LENGTH:
            return self._reject(RejectReason.BAD_SESSION_ID, payload.session_id[:80])
        if len(payload.values) != self.expected_features:
            return self._reject(
                RejectReason.WRONG_ARITY,
                f"{len(payload.values)} values, expected {self.expected_features}",
            )
        if any(v < 0 or v > _MAX_FEATURE_VALUE for v in payload.values):
            return self._reject(RejectReason.VALUE_RANGE, "feature out of range")
        if len(payload.suspicious_globals) > _MAX_SUSPICIOUS_GLOBALS:
            return self._reject(
                RejectReason.GLOBALS_OVERFLOW,
                f"{len(payload.suspicious_globals)} suspicious globals",
            )
        try:
            parse_user_agent(payload.user_agent)
        except UserAgentError:
            return self._reject(
                RejectReason.UNPARSEABLE_UA, payload.user_agent[:80]
            )
        if self._dedup_window and payload.session_id in self._seen_set:
            return self._reject(RejectReason.DUPLICATE, payload.session_id)
        self._remember(payload.session_id)
        self.accepted_count += 1
        return IngestResult(accepted=True, payload=payload)

    # ------------------------------------------------------------------
    # dedup state, shared with the runtime's fast ingest path

    def dedup_state(self) -> tuple:
        """The ``(window, ids_deque, id_set)`` triple, for bulk ingest.

        :class:`~repro.runtime.fastingest.WireIngest` inlines the window
        check and :meth:`_remember` across a whole chunk under one lock;
        the containers are shared, not copied.
        """
        return self._dedup_window, self._seen_ids, self._seen_set

    def _remember(self, session_id: str) -> None:
        """Record an accepted session id in the dedup window."""
        if not self._dedup_window:
            return
        if len(self._seen_ids) == self._seen_ids.maxlen:
            oldest = self._seen_ids[0]
            self._seen_set.discard(oldest)
        self._seen_ids.append(session_id)
        self._seen_set.add(session_id)

    def _reject(self, reason: RejectReason, detail: str) -> IngestResult:
        self.quarantine.record(reason, detail)
        return IngestResult(accepted=False, reason=reason, detail=detail)
