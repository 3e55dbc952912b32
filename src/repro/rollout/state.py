"""Durable rollout state.

A rollout is a days-long process at FinOrg scale; the process running
it will be restarted, redeployed, and OOM-killed before it finishes.
:class:`RolloutState` is everything needed to resume exactly where the
previous process stopped: which candidate against which baseline, the
current stage, and — critically — the hashing ``salt``, so the sticky
per-session traffic split is bit-identical across restarts.

The state file is rewritten on every transition through
:func:`repro.durable.write_atomic`, so a crash mid-write leaves the
previous state intact rather than a truncated JSON document.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.durable import read_json, write_atomic

__all__ = [
    "ABORTED",
    "CANARY",
    "IN_FLIGHT",
    "LIVE",
    "ROLLED_BACK",
    "SHADOW",
    "RolloutState",
    "load_state",
    "save_state",
]

SHADOW = "shadow"
CANARY = "canary"
LIVE = "live"
ROLLED_BACK = "rolled_back"
ABORTED = "aborted"

IN_FLIGHT = (SHADOW, CANARY)


@dataclass
class RolloutState:
    """One rollout's durable record.

    ``stage_index`` is ``-1`` during shadow (candidate serves nothing)
    and indexes into ``stages`` during the canary ramp.
    """

    candidate_version: int
    baseline_version: int
    stages: Tuple[float, ...]
    shadow_sample_rate: float
    salt: str
    status: str = SHADOW
    stage_index: int = -1
    started_at: float = 0.0
    stage_started_at: float = 0.0
    breach: Optional[dict] = None
    report: dict = field(default_factory=dict)
    history: List[dict] = field(default_factory=list)

    # ------------------------------------------------------------------

    @property
    def in_flight(self) -> bool:
        """Whether the rollout is still walking toward live."""
        return self.status in IN_FLIGHT

    @property
    def stage_fraction(self) -> float:
        """Share of real traffic the candidate currently serves."""
        if self.status == LIVE:
            return 1.0
        if self.status != CANARY or self.stage_index < 0:
            return 0.0
        return float(self.stages[self.stage_index])

    def record(self, event: str, at: float) -> None:
        """Append one transition to the audit trail."""
        self.history.append(
            {"event": event, "at": at, "stage_index": self.stage_index}
        )

    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        document = asdict(self)
        document["stages"] = list(self.stages)
        return document

    @classmethod
    def from_dict(cls, document: dict) -> "RolloutState":
        document = dict(document)
        document["stages"] = tuple(float(s) for s in document["stages"])
        return cls(**document)


def save_state(state: RolloutState, path: Union[str, Path]) -> None:
    """Atomically persist ``state`` to ``path``."""
    write_atomic(path, json.dumps(state.to_dict(), indent=2))


def load_state(path: Union[str, Path]) -> Optional[RolloutState]:
    """Load a persisted state, or ``None`` when no file exists."""
    path = Path(path)
    if not path.exists():
        return None
    return RolloutState.from_dict(read_json(path))
