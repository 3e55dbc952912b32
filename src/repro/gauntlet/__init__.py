"""Adversarial co-evolution gauntlet.

Replays an accelerated "production year" against the real serving
stack: a virtual clock advances day by day through the release
calendar, an adaptive adversary evolves its fraud mix against the
defender's verdicts, and drift-triggered retrains flow through the
shadow -> canary -> promote rollout automatically — rollbacks included.
See :mod:`repro.gauntlet.orchestrator` for the full loop.
"""

from repro.gauntlet.adversary import AdversaryConfig, AdversaryDirector
from repro.gauntlet.clock import VirtualClock
from repro.gauntlet.ledger import DIGEST_COLUMNS, TIMING_COLUMNS, DayLedger
from repro.gauntlet.orchestrator import (
    GauntletConfig,
    GauntletOrchestrator,
    GauntletResult,
    run_gauntlet,
)
from repro.gauntlet.report import render_report, render_timeline
from repro.gauntlet.rollout import DayBoundaryRollout, RolloutEvent
from repro.gauntlet.traffic import DayTrafficFactory

__all__ = [
    "AdversaryConfig",
    "AdversaryDirector",
    "DayBoundaryRollout",
    "DayLedger",
    "DayTrafficFactory",
    "DIGEST_COLUMNS",
    "GauntletConfig",
    "GauntletOrchestrator",
    "GauntletResult",
    "RolloutEvent",
    "TIMING_COLUMNS",
    "VirtualClock",
    "render_report",
    "render_timeline",
    "run_gauntlet",
]
