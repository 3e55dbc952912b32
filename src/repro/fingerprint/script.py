"""The deployable collection script: wire format and cost accounting.

Section 3 of the paper sets two hard deployment constraints for the
FinOrg integration — at most 100ms of service time and at most 1KB of
data per user — and Table 2 compares Browser Polygraph's 6ms / 1KB
against FingerprintJS (51ms / ~23KB), ClientJS (37ms / ~10KB) and
AmIUnique (~1.5s / ~60KB).

:class:`CollectionScript` packages the 28-feature collector into the
shape FinOrg deploys: run it against an environment, get a
:class:`FingerprintPayload` with the serialized bytes that travel to the
backend, and measure the service time with a steady clock.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.fingerprint.collector import FingerprintCollector
from repro.fingerprint.features import FEATURE_SPECS, FeatureSpec
from repro.fraudbrowsers.namespace_probe import scan_environment
from repro.jsengine.environment import JSEnvironment

__all__ = ["CollectionScript", "FingerprintPayload", "MAX_PAYLOAD_BYTES", "MAX_SERVICE_TIME_MS"]

# FinOrg deployment constraints (paper Section 3).
MAX_SERVICE_TIME_MS = 100.0
MAX_PAYLOAD_BYTES = 1024


@dataclass(frozen=True)
class FingerprintPayload:
    """What the script ships to the backend for one session.

    ``suspicious_globals`` carries the namespace probe's findings (the
    Section 8 extension); it is empty for genuine browsers and omitted
    from the wire format when empty, so the 1KB budget is unaffected.
    """

    session_id: str
    user_agent: str
    values: tuple
    service_time_ms: float
    suspicious_globals: tuple = ()

    def to_wire(self) -> bytes:
        """Serialize to the compact JSON wire format."""
        body = {
            "sid": self.session_id,
            "ua": self.user_agent,
            "f": list(self.values),
        }
        if self.suspicious_globals:
            body["g"] = list(self.suspicious_globals)
        return json.dumps(body, separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_wire(cls, wire: bytes) -> "FingerprintPayload":
        """Parse a wire payload (service time is not transmitted)."""
        try:
            body = json.loads(wire.decode("utf-8"))
            return cls(
                session_id=str(body["sid"]),
                user_agent=str(body["ua"]),
                values=tuple(int(v) for v in body["f"]),
                service_time_ms=0.0,
                suspicious_globals=tuple(str(g) for g in body.get("g", ())),
            )
        except (
            ValueError, KeyError, TypeError, RecursionError, OverflowError
        ) as exc:
            # A 1 KB body can nest ~1000 deep (RecursionError) or carry
            # 1e999 (OverflowError in int()); both are just malformed.
            raise ValueError(f"malformed fingerprint payload: {exc}") from exc

    @property
    def size_bytes(self) -> int:
        """Payload size on the wire."""
        return len(self.to_wire())

    def vector(self) -> np.ndarray:
        """Feature values as an int vector."""
        return np.asarray(self.values, dtype=np.int32)


class CollectionScript:
    """The in-page script FinOrg embeds in its purchase flow."""

    def __init__(self, specs: Sequence[FeatureSpec] = FEATURE_SPECS) -> None:
        self._collector = FingerprintCollector(specs)

    def run(
        self,
        environment: JSEnvironment,
        user_agent: str,
        session_id: str = "anon",
        clock: Optional[object] = None,
    ) -> FingerprintPayload:
        """Collect a fingerprint and time the collection.

        ``clock`` is injectable for tests; it must be a zero-argument
        callable returning seconds (defaults to ``time.perf_counter``).
        """
        tick = clock or time.perf_counter
        started = tick()
        values = self._collector.collect(environment)
        hits = scan_environment(environment)
        elapsed_ms = (tick() - started) * 1000.0
        return FingerprintPayload(
            session_id=session_id,
            user_agent=user_agent,
            values=tuple(int(v) for v in values),
            service_time_ms=elapsed_ms,
            suspicious_globals=tuple(hit.global_name for hit in hits),
        )
