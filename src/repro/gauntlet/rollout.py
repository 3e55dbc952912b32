"""Rollout driving under the virtual clock.

The :class:`~repro.rollout.manager.RolloutManager` evaluates its
guardrails continuously, on every piece of shadow evidence — correct in
production, where evidence arrives on the same clock as everything
else.  Under an accelerated replay that coupling breaks determinism:
the shadow thread drains on *wall* time, so the instant a breach fires
would vary between identical-seed runs, and with it the set of sessions
the candidate served.  The gauntlet therefore runs the rollout the way
it runs everything else — on day boundaries:

* one manager on the serving runtime owns the state machine, with a
  deterministic per-candidate salt and the virtual clock stamping every
  transition;
* the manager's *continuous* guardrails are disabled; instead
  :meth:`DayBoundaryRollout.day_step` drains the shadow scorer at the
  end of each virtual day and evaluates the real guardrails over the
  day's evidence — breach means rollback, a complete stage means
  advance, and the last stage promotes (the manager installs the
  candidate into the runtime and marks it live in the registry).

The wrapper exposes the ``begin``/``in_flight`` surface the
:class:`~repro.core.retraining.RetrainingOrchestrator` expects from a
rollout manager, so drift-triggered candidates flow through it
unchanged.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.core.pipeline import BrowserPolygraph
from repro.rollout.canary import CanaryController, GuardrailBreach, session_bucket
from repro.rollout.config import GuardrailConfig, RolloutConfig
from repro.rollout.manager import RolloutManager
from repro.rollout.state import CANARY, LIVE, SHADOW

__all__ = ["DayBoundaryRollout", "RolloutEvent"]

# Continuous guardrails are turned off (limits at their maxima, the
# comparison floor unreachable): the day-boundary evaluation below is
# the only judge, which is what makes identical seeds produce identical
# rollout histories.
_DISABLED_GUARDRAILS = GuardrailConfig(
    max_disagreement_rate=1.0,
    max_flag_rate_delta=1.0,
    max_latency_p99_ms=1e9,
    min_comparisons=10**9,
)


class RolloutEvent:
    """What one day-step did (for the ledger)."""

    __slots__ = ("action", "breach", "version")

    def __init__(
        self,
        action: str,
        version: int,
        breach: Optional[GuardrailBreach] = None,
    ) -> None:
        self.action = action  # "advance" | "promote" | "rollback" | "hold"
        self.version = version
        self.breach = breach


class DayBoundaryRollout:
    """One rollout manager whose transitions happen at day boundaries."""

    def __init__(
        self,
        registry,
        runtime,
        clock: Callable[[], float],
        config: RolloutConfig,
        guardrails: GuardrailConfig,
        seed: int = 0,
    ) -> None:
        self.config = config
        self.guardrails = guardrails
        self.seed = seed
        self.manager = RolloutManager(
            registry,
            runtime=runtime,
            config=config,
            guardrails=_DISABLED_GUARDRAILS,
            clock=clock,
        )
        self._stage_candidate_verdicts = 0
        self.events: List[Tuple[str, int, str]] = []  # (action, version, detail)

    # ------------------------------------------------------------------
    # orchestrator-facing surface

    @property
    def in_flight(self) -> bool:
        return self.manager.in_flight

    @property
    def state(self):
        return self.manager.state

    def begin(
        self,
        candidate: BrowserPolygraph,
        candidate_version: int,
        on_complete: Optional[Callable[[], None]] = None,
        **kwargs,
    ):
        """Enter shadow with a deterministic salt."""
        kwargs.setdefault("salt", f"gauntlet-{self.seed}-v{candidate_version}")
        state = self.manager.begin(
            candidate, candidate_version, on_complete=on_complete, **kwargs
        )
        self._stage_candidate_verdicts = 0
        self.events.append(("begin", candidate_version, "shadow"))
        return state

    # ------------------------------------------------------------------
    # the day boundary

    def note_traffic(self, session_ids) -> int:
        """Count today's candidate-arm sessions toward stage progress.

        Uses the same salted bucket function the runtime routes with,
        counting every candidate-arm session whether its verdict came
        from the model or the verdict cache.
        """
        state = self.manager.state
        if state is None or not state.in_flight or state.status != CANARY:
            return 0
        fraction = state.stage_fraction
        count = sum(
            1
            for sid in session_ids
            if session_bucket(state.salt, str(sid)) < fraction
        )
        self._stage_candidate_verdicts += count
        return count

    def day_step(self) -> RolloutEvent:
        """End-of-day rollout transition: rollback, advance, or hold."""
        manager = self.manager
        state = manager.state
        if state is None or not state.in_flight:
            return RolloutEvent("hold", 0)
        version = state.candidate_version
        manager.drain_shadow(30.0)
        # The real guardrails over the shadow report, with no latency
        # stats: nothing wall-clock may decide a transition.
        judge = CanaryController(
            state, self.config, self.guardrails, manager.report
        )
        breach = judge.evaluate()
        if breach is not None:
            manager.rollback(breach)
            self.events.append(("rollback", version, breach.name))
            return RolloutEvent("rollback", version, breach)
        if state.status == SHADOW:
            complete = judge.stage_complete()
        else:
            complete = self._stage_candidate_verdicts >= self.config.min_stage_verdicts
        if not complete:
            return RolloutEvent("hold", version)
        manager.advance(force=True)
        self._stage_candidate_verdicts = 0
        if manager.state.status == LIVE:
            self.events.append(("promote", version, "live"))
            return RolloutEvent("promote", version)
        self.events.append(
            ("advance", version, f"stage {manager.state.stage_index}")
        )
        return RolloutEvent("advance", version)

    def force_advance(self) -> None:
        """Skip stage completeness (chaos drills)."""
        self.manager.advance(force=True)
        self._stage_candidate_verdicts = 0
        state = self.manager.state
        self.events.append(
            ("advance", state.candidate_version, f"forced stage {state.stage_index}")
        )

    def close(self) -> None:
        """Join the manager's shadow thread."""
        self.manager.close()
