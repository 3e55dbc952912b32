"""Session records.

A session is one row of the FinOrg dataset: the coarse-grained feature
vector, the claimed user-agent, an opaque session id, the three internal
tags — plus, in the simulator only, the generative ground truth (which
real deployments never see; it exists to score the pipeline).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from enum import Enum
from typing import Optional, Tuple

import numpy as np

__all__ = ["GroundTruth", "Session", "SessionKind"]


class SessionKind(str, Enum):
    """Generative origin of a session."""

    LEGIT = "legit"
    DERIVATIVE = "derivative"  # Brave / Tor: legitimate but UA-ambiguous
    FRAUD = "fraud"


@dataclass(frozen=True)
class GroundTruth:
    """What the simulator knows about a session (never shown to models).

    ``actual_version`` records the engine release whose surface the
    session really exposes; for Category-1 fraud it is the bundled
    engine before tampering.
    """

    kind: SessionKind
    browser: str  # product label, e.g. "chrome", "brave", "GoLogin-3.3.23"
    category: int = 0  # fraud category 1-4; 0 for non-fraud
    perturbation: str = ""  # benign perturbation name, "" if none
    actual_version: int = 0

    @property
    def is_fraud(self) -> bool:
        """Whether the session originates from an attacker."""
        return self.kind is SessionKind.FRAUD


@dataclass(frozen=True)
class Session:
    """One observed session, as the pipeline sees it.

    ``timestamp`` is the absolute epoch-second instant of the session's
    *first* fingerprint collection.  ``day`` remains the coarse calendar
    grain the paper's training windows use; the timestamp is what the
    event-stream layer (:mod:`repro.traffic.events`) anchors per-event
    monotonic clocks to.  It defaults to ``0.0`` so constructors that
    predate it are unaffected.
    """

    session_id: str
    day: date
    user_agent: str
    features: Tuple[int, ...]
    untrusted_ip: bool
    untrusted_cookie: bool
    ato: bool
    truth: Optional[GroundTruth] = None
    timestamp: float = 0.0

    def vector(self) -> np.ndarray:
        """Feature values as an int vector."""
        return np.asarray(self.features, dtype=np.int32)
