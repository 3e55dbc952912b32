"""Cluster-wide rollout driving under the virtual clock.

The PR-2 :class:`~repro.rollout.manager.RolloutManager` evaluates its
guardrails continuously, on every piece of shadow evidence — correct in
production, where evidence arrives on the same clock as everything
else.  Under an accelerated replay that coupling breaks determinism:
the shadow thread drains on *wall* time, so the instant a breach fires
would vary between identical-seed runs, and with it the set of sessions
the candidate served.  The gauntlet therefore runs the rollout the way
it runs everything else — on day boundaries:

* one **primary** manager (shard ``s0``) owns the state machine, with
  a deterministic per-candidate salt and the virtual clock stamping
  every transition;
* every other shard gets a **follower** manager resumed from the same
  persisted state after each transition, so arm routing (sticky salted
  buckets) agrees on every shard and failover never flips a session's
  arm;
* the managers' *continuous* guardrails are disabled; instead
  :meth:`ClusterRolloutBinding.day_step` drains all shadow scorers at
  the end of each virtual day and evaluates the real guardrails over
  the aggregated evidence — breach means rollback, a complete stage
  means advance, the last stage promotes and the quorum distributor
  pushes the new generation to every shard.

The binding exposes the ``begin``/``in_flight`` surface the
:class:`~repro.core.retraining.RetrainingOrchestrator` expects from a
rollout manager, so drift-triggered candidates flow through it
unchanged.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.pipeline import BrowserPolygraph
from repro.rollout.canary import GuardrailBreach, session_bucket
from repro.rollout.config import GuardrailConfig, RolloutConfig
from repro.rollout.manager import RolloutManager
from repro.rollout.state import CANARY, LIVE, SHADOW

__all__ = ["ClusterRolloutBinding", "RolloutEvent"]

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


class ClusterRolloutBinding:
    """Primary + follower rollout managers over a thread-shard cluster."""

    def __init__(
        self,
        registry,
        supervisor,
        clock: Callable[[], float],
        config: RolloutConfig,
        guardrails: GuardrailConfig,
        seed: int = 0,
        distributor=None,
    ) -> None:
        if supervisor.config.backend != "thread":
            raise NotImplementedError(
                "the gauntlet rollout binding requires the thread backend"
            )
        self.registry = registry
        self.supervisor = supervisor
        self.config = config
        self.guardrails = guardrails
        self.seed = seed
        self.distributor = distributor
        self._clock = clock
        shards = list(supervisor.shards.items())
        primary_id, primary_shard = shards[0]
        self.primary = RolloutManager(
            registry,
            runtime=primary_shard.service,
            config=config,
            guardrails=_DISABLED_GUARDRAILS,
            clock=clock,
        )
        self.followers: Dict[str, RolloutManager] = {
            shard_id: RolloutManager(
                registry,
                runtime=shard.service,
                config=config,
                guardrails=_DISABLED_GUARDRAILS,
                clock=clock,
            )
            for shard_id, shard in shards[1:]
        }
        # Aggregation baselines: a follower's restored report re-counts
        # the primary's snapshot; subtract it so evidence is never
        # double-counted.
        self._follower_base: Dict[str, Tuple[int, int, int, int]] = {}
        self._stage_candidate_verdicts = 0
        self.events: List[Tuple[str, int, str]] = []  # (action, version, detail)

    # ------------------------------------------------------------------
    # orchestrator-facing surface

    @property
    def in_flight(self) -> bool:
        return self.primary.in_flight

    @property
    def state(self):
        return self.primary.state

    def begin(
        self,
        candidate: BrowserPolygraph,
        candidate_version: int,
        on_complete: Optional[Callable[[], None]] = None,
        **kwargs,
    ):
        """Enter shadow with a deterministic salt; sync every shard."""
        kwargs.setdefault("salt", f"gauntlet-{self.seed}-v{candidate_version}")
        state = self.primary.begin(
            candidate, candidate_version, on_complete=on_complete, **kwargs
        )
        self._stage_candidate_verdicts = 0
        self._sync_followers()
        self.events.append(("begin", candidate_version, "shadow"))
        return state

    # ------------------------------------------------------------------
    # the day boundary

    def note_traffic(self, session_ids) -> int:
        """Count today's candidate-arm sessions toward stage progress.

        Uses the same salted bucket function the runtime routes with, so
        the count is exact and deterministic regardless of which shard
        served each session.
        """
        state = self.primary.state
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
        state = self.primary.state
        if state is None or not state.in_flight:
            return RolloutEvent("hold", 0)
        version = state.candidate_version
        self._drain_all()
        comparisons, mismatches, live_flags, cand_flags = self._aggregate()
        breach = self._evaluate(comparisons, mismatches, live_flags, cand_flags)
        if breach is not None:
            self.primary.rollback(breach)
            self._sync_followers()
            self.events.append(("rollback", version, breach.name))
            return RolloutEvent("rollback", version, breach)
        if not self._stage_complete(comparisons):
            return RolloutEvent("hold", version)
        self.primary.advance(force=True)
        self._stage_candidate_verdicts = 0
        if self.primary.state.status == LIVE:
            # Promotion installed the candidate on the primary shard;
            # push the new live generation to the rest of the fleet and
            # flip the serving version at quorum.
            self._sync_followers()
            if self.distributor is not None:
                self.distributor.publish()
            self.events.append(("promote", version, "live"))
            return RolloutEvent("promote", version)
        self._sync_followers()
        self.events.append(
            ("advance", version, f"stage {self.primary.state.stage_index}")
        )
        return RolloutEvent("advance", version)

    def force_advance(self) -> None:
        """Skip stage completeness (chaos drills); sync every shard."""
        self.primary.advance(force=True)
        self._stage_candidate_verdicts = 0
        self._sync_followers()
        state = self.primary.state
        self.events.append(
            ("advance", state.candidate_version, f"forced stage {state.stage_index}")
        )

    def rebind(self) -> None:
        """Re-attach followers whose shard restarted with a new runtime.

        A crashed-and-restarted thread shard comes back with a fresh
        :class:`~repro.runtime.service.RuntimeScoringService`; the old
        follower manager still points at the dead one.  Replace it and
        resume the persisted rollout state so arm routing on the revived
        shard matches the rest of the fleet before it serves again.
        """
        for shard_id, follower in list(self.followers.items()):
            shard = self.supervisor.shards[shard_id]
            if shard.service is None or follower.runtime is shard.service:
                continue
            follower.close()
            fresh = RolloutManager(
                self.registry,
                runtime=shard.service,
                config=self.config,
                guardrails=_DISABLED_GUARDRAILS,
                clock=self._clock,
            )
            self.followers[shard_id] = fresh
            if self.primary.in_flight:
                fresh.resume()
                self._follower_base[shard_id] = self._report_counts(fresh)

    def close(self) -> None:
        """Join every manager's shadow thread."""
        self.primary.close()
        for follower in self.followers.values():
            follower.close()

    # ------------------------------------------------------------------
    # internals

    def _drain_all(self, timeout: float = 30.0) -> None:
        self.primary.drain_shadow(timeout)
        for follower in self.followers.values():
            follower.drain_shadow(timeout)

    def _report_counts(self, manager) -> Tuple[int, int, int, int]:
        report = manager.report
        if report is None:
            return (0, 0, 0, 0)
        return (
            report.comparisons,
            report.mismatches,
            report.live_flagged,
            report.candidate_flagged,
        )

    def _aggregate(self) -> Tuple[int, int, int, int]:
        total = list(self._report_counts(self.primary))
        for shard_id, follower in self.followers.items():
            counts = self._report_counts(follower)
            base = self._follower_base.get(shard_id, (0, 0, 0, 0))
            for i in range(4):
                total[i] += max(0, counts[i] - base[i])
        return tuple(total)  # type: ignore[return-value]

    def _evaluate(
        self, comparisons: int, mismatches: int, live_flags: int, cand_flags: int
    ) -> Optional[GuardrailBreach]:
        g = self.guardrails
        if comparisons < g.min_comparisons:
            return None
        rate = mismatches / comparisons
        if rate > g.max_disagreement_rate:
            return GuardrailBreach(
                name="disagreement_rate",
                observed=rate,
                limit=g.max_disagreement_rate,
                detail=f"{mismatches}/{comparisons} cluster-wide comparisons",
            )
        delta = abs(cand_flags - live_flags) / comparisons
        if delta > g.max_flag_rate_delta:
            return GuardrailBreach(
                name="flag_rate_delta",
                observed=delta,
                limit=g.max_flag_rate_delta,
                detail=f"candidate {cand_flags} vs live {live_flags} flags",
            )
        return None

    def _stage_complete(self, comparisons: int) -> bool:
        state = self.primary.state
        if state.status == SHADOW:
            return comparisons >= self.guardrails.min_comparisons
        if state.status == CANARY:
            return self._stage_candidate_verdicts >= self.config.min_stage_verdicts
        return False

    def _sync_followers(self) -> None:
        """Propagate the primary's persisted state to every follower."""
        in_flight = self.primary.in_flight
        for shard_id, follower in self.followers.items():
            if in_flight:
                follower.resume()
                self._follower_base[shard_id] = self._report_counts(follower)
            else:
                # Outcome reached: detach arm routing and drop candidate
                # cache entries on this shard.
                runtime = follower.runtime
                follower.close()
                runtime.detach_rollout()
                if runtime.cache is not None:
                    runtime.cache.invalidate(runtime.polygraph.model_generation)
                follower.state = None
                follower.report = None
