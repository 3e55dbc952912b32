"""The rollout manager: shadow → canary ramp → live, or rollback.

:class:`RolloutManager` walks a candidate model from the registry to
production through the stages the config prescribes::

    stage -1  SHADOW   candidate serves 0%; a sample of live traffic is
                       mirrored to it and disagreements accumulate
    stage 0+  CANARY   candidate serves stages[i] of real traffic,
                       sticky per-session; shadow keeps watching the
                       live arm
    promote   LIVE     candidate installed into the serving pipeline
                       (generation bump → verdict-cache invalidation),
                       registry entry marked live

Guardrails are evaluated on every drained shadow batch and every
candidate batch; any breach triggers an automatic :meth:`rollback` — traffic
routes back to the prior model instantly, the verdict cache is
invalidated so no candidate verdict survives, and the registry entry is
marked rolled back.  Every transition persists :class:`RolloutState`
atomically, so a restarted process resumes mid-ramp with the same
sticky split (same salt, same stage).
"""

from __future__ import annotations

import secrets
import threading
import time
from pathlib import Path
from typing import Callable, List, Optional, Tuple, Union

from repro.core.pipeline import BrowserPolygraph
from repro.rollout.canary import CanaryController, GuardrailBreach
from repro.rollout.config import GuardrailConfig, RolloutConfig, RolloutError
from repro.rollout.shadow import DisagreementReport, ShadowScorer
from repro.rollout.state import (
    ABORTED,
    CANARY,
    LIVE,
    ROLLED_BACK,
    SHADOW,
    RolloutState,
    load_state,
    save_state,
)

__all__ = ["RolloutManager"]


class RolloutManager:
    """Drives one candidate through shadow and canary to live.

    Parameters
    ----------
    registry:
        The :class:`~repro.core.retraining.ModelRegistry` holding the
        baseline and the candidate.
    runtime:
        Optional :class:`~repro.runtime.service.RuntimeScoringService`
        to attach to.  Without one (the offline CLI), the manager still
        walks the persisted state machine; the serving process picks the
        outcome up through the registry and :meth:`resume`.
    state_path:
        Where :class:`RolloutState` persists; defaults to
        ``<registry root>/rollout.json``.
    """

    def __init__(
        self,
        registry,
        runtime=None,
        config: Optional[RolloutConfig] = None,
        guardrails: Optional[GuardrailConfig] = None,
        state_path: Optional[Union[str, Path]] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.registry = registry
        self.runtime = runtime
        self.config = config if config is not None else RolloutConfig()
        self.guardrails = guardrails if guardrails is not None else GuardrailConfig()
        self.state_path = (
            Path(state_path)
            if state_path is not None
            else Path(registry.root) / "rollout.json"
        )
        self._clock = clock
        self._lock = threading.RLock()
        self.state: Optional[RolloutState] = None
        self.report: Optional[DisagreementReport] = None
        self.candidate: Optional[BrowserPolygraph] = None
        self.controller: Optional[CanaryController] = None
        self._candidate_detector = None
        self._shadow: Optional[ShadowScorer] = None
        self._on_complete: Optional[Callable[[], None]] = None
        self._on_rollback: Optional[Callable[[Optional[GuardrailBreach]], None]] = None

    # ------------------------------------------------------------------
    # lifecycle

    @property
    def in_flight(self) -> bool:
        """Whether a rollout is currently between start and an outcome."""
        state = self.state
        return state is not None and state.in_flight

    def begin(
        self,
        candidate: BrowserPolygraph,
        candidate_version: int,
        baseline_version: Optional[int] = None,
        salt: Optional[str] = None,
        on_complete: Optional[Callable[[], None]] = None,
        on_rollback: Optional[Callable[[Optional[GuardrailBreach]], None]] = None,
    ) -> RolloutState:
        """Enter the shadow stage with an already-loaded candidate."""
        with self._lock:
            if self.in_flight:
                raise RolloutError(
                    f"rollout of v{self.state.candidate_version} already in flight"
                )
            if baseline_version is None:
                baseline_version = self.registry.live_version
            if baseline_version < 1:
                raise RolloutError("no live baseline model to roll out against")
            now = self._clock()
            self.state = RolloutState(
                candidate_version=candidate_version,
                baseline_version=baseline_version,
                stages=self.config.stages,
                shadow_sample_rate=self.config.shadow_sample_rate,
                salt=salt if salt is not None else secrets.token_hex(8),
                status=SHADOW,
                stage_index=-1,
                started_at=now,
                stage_started_at=now,
            )
            self.report = DisagreementReport()
            self.candidate = candidate
            self._candidate_detector = candidate.detection_snapshot()[1]
            self._on_complete = on_complete
            self._on_rollback = on_rollback
            self._build_controller()
            self.state.record("start", now)
            self.save()
            self._attach()
            return self.state

    def start(self, candidate_version: int, **kwargs) -> RolloutState:
        """Load a candidate from the registry and enter shadow."""
        candidate = self.registry.load(candidate_version)
        return self.begin(candidate, candidate_version, **kwargs)

    def resume(self) -> Optional[RolloutState]:
        """Pick up a persisted rollout after a process restart.

        An in-flight state resumes at its exact stage with its exact
        sticky split; a state whose candidate is missing from the
        registry is aborted cleanly rather than half-resumed.
        """
        with self._lock:
            state = load_state(self.state_path)
            if state is None:
                return None
            self.state = state
            self.report = DisagreementReport.restore(state.report)
            # Every outcome marks the registry (whose statuses share these
            # names) before it saves this file: after a crash between the
            # two, the state catches up with the registry.
            marked = {e["version"]: e.get("status") for e in self.registry.versions()}
            marked = marked.get(state.candidate_version)
            ahead = {LIVE, ROLLED_BACK} - {state.status}
            if state.status in (SHADOW, CANARY, LIVE) and marked in ahead:
                state.status = marked
                state.record(f"{marked}: recovered from the registry", self._clock())
                save_state(state, self.state_path)
            if not state.in_flight:
                return state
            try:
                self.candidate = self.registry.load(state.candidate_version)
            except (LookupError, ValueError, OSError):
                state.status = ABORTED
                state.record("abort: candidate unloadable", self._clock())
                save_state(state, self.state_path)
                return state
            self._candidate_detector = self.candidate.detection_snapshot()[1]
            self._build_controller()
            self._attach()
            return state

    def close(self) -> None:
        """Join the shadow thread (call when the owning service stops)."""
        shadow = self._shadow
        self._shadow = None
        if shadow is not None:
            shadow.shutdown(drain=False)

    # ------------------------------------------------------------------
    # transitions

    def advance(self, force: bool = False) -> RolloutState:
        """Move one stage toward live (or roll back on a breach).

        Guardrails are evaluated first: a breach rolls back instead of
        advancing.  ``force=True`` is the operator override for the
        stage-completeness requirement — guardrails are never skipped.
        """
        with self._lock:
            self._require_in_flight()
            breach = self.controller.evaluate()
            if breach is not None:
                self.rollback(breach)
                return self.state
            if not force and not self.controller.stage_complete():
                raise RolloutError(
                    f"stage {self.state.stage_index} not complete "
                    "(not enough candidate evidence); use force to override"
                )
            state = self.state
            if state.stage_index + 1 < len(state.stages):
                state.stage_index += 1
                state.status = CANARY
                state.stage_started_at = self._clock()
                self.controller.reset_stage()
                state.record("advance", state.stage_started_at)
                # The traffic split shifted: cached live verdicts could
                # otherwise be served to sessions now on the candidate
                # arm.  Exactly one invalidation per stage transition.
                self._invalidate_runtime_cache()
                self.save()
            else:
                self._promote()
            return self.state

    def rollback(self, breach: Optional[GuardrailBreach] = None) -> RolloutState:
        """Route everything back to the baseline and record why.

        Mid-ramp the baseline was never displaced, so rollback is
        detach + one cache invalidation.  After promotion the baseline
        is reloaded from the registry and reinstalled (generation bump
        invalidates the cache through the swap listener).
        """
        with self._lock:
            self._require_state()
            state = self.state
            if state.status in (ROLLED_BACK, ABORTED):
                return state
            was_live = state.status == LIVE
            self._detach()
            if was_live:
                baseline = self.registry.load(state.baseline_version)
                if self.runtime is not None:
                    self.runtime.polygraph.install(baseline.cluster_model)
            else:
                self._invalidate_runtime_cache()
            self.registry.mark_rolled_back(state.candidate_version)
            state.status = ROLLED_BACK
            state.breach = breach.to_dict() if breach is not None else None
            state.record(
                f"rollback: {breach.name}" if breach is not None else "rollback",
                self._clock(),
            )
            self.save()
        callback = self._on_rollback
        if callback is not None:
            callback(breach)
        return self.state

    def abort(self) -> RolloutState:
        """Operator abort: stop the rollout without blaming a guardrail."""
        with self._lock:
            self._require_state()
            state = self.state
            if state.status in (ROLLED_BACK, ABORTED):
                return state
            self._detach()
            self._invalidate_runtime_cache()
            if state.in_flight or state.status == LIVE:
                self.registry.mark_rolled_back(state.candidate_version)
            state.status = ABORTED
            state.record("abort", self._clock())
            self.save()
            return state

    def _promote(self) -> None:
        """Final transition: candidate becomes the live model."""
        state = self.state
        # Detach first so no new request routes to the "candidate" arm,
        # then install: the swap listener performs this transition's
        # single cache invalidation.
        self._detach()
        if self.runtime is not None:
            self.runtime.polygraph.install(self.candidate.cluster_model)
        self.registry.mark_live(state.candidate_version)
        state.status = LIVE
        state.record("promote", self._clock())
        self.save()
        callback = self._on_complete
        if callback is not None:
            callback()

    # ------------------------------------------------------------------
    # runtime-facing API (hot path)

    def route(self, session_id: str) -> Tuple[bool, bool]:
        """``(candidate, mirror)`` for one session (sticky, salted)."""
        controller = self.controller
        if controller is None:
            return False, False
        candidate, mirror = controller.route(session_id)
        if mirror and self._shadow is None:
            mirror = False
        return candidate, mirror

    def mirror_many(self, rows) -> None:
        """Hand a batch's live-arm verdicts to the shadow scorer.

        ``rows`` are ``(values, ua_key, live result)`` triples; the call
        never blocks on the comparison.  Interim inferred *flags*
        (``unknown_ua_policy="infer"`` flagging an unknown release
        scored against its nearest known neighbour) are not comparison
        evidence: a candidate retrained to *know* that release is
        expected to disagree with them, and counting those
        disagreements would veto exactly the refreshes the coverage
        planner schedules.  Inferred pass verdicts still mirror — a
        candidate that flags traffic live waves through is
        overblocking, which the guardrails must keep seeing (the chaos
        drill's stale candidate fails exactly this way).
        """
        shadow = self._shadow
        if shadow is None:
            return
        shadow.mirror_many(
            [
                (values, ua_key, result.flagged, result.risk_factor)
                for values, ua_key, result in rows
                if not (result.flagged and result.inferred_release is not None)
            ]
        )

    def candidate_detector(self):
        """The frozen detector snapshot canary batches score against."""
        return self._candidate_detector

    def observe_candidate_batch(self, n: int, elapsed_ms: float) -> None:
        """Account one candidate-scored batch, then check guardrails."""
        if self.runtime is not None:
            self.runtime.runtime_stats.observe_stage("candidate_model", elapsed_ms)
        controller = self.controller
        if controller is not None:
            controller.note_candidate_verdicts(n)
        self._maybe_rollback()

    def drain_shadow(self, timeout: float = 10.0) -> bool:
        """Wait for the shadow backlog to settle (tests, clean shutdown)."""
        shadow = self._shadow
        return shadow.drain(timeout) if shadow is not None else True

    # ------------------------------------------------------------------
    # introspection

    def evaluate(self) -> Optional[GuardrailBreach]:
        """Current guardrail verdict (``None`` when healthy or idle)."""
        controller = self.controller
        return controller.evaluate() if controller is not None else None

    def status_dict(self) -> dict:
        """JSON-friendly view for the ``/rollout`` endpoint and the CLI."""
        state = self.state
        if state is None:
            return {"status": "idle"}
        report = self.report
        document = {
            "status": state.status,
            "candidate_version": state.candidate_version,
            "baseline_version": state.baseline_version,
            "stage_index": state.stage_index,
            "stage_fraction": state.stage_fraction,
            "stages": list(state.stages),
            "stage_age_seconds": max(0.0, self._clock() - state.stage_started_at),
            "breach": state.breach,
        }
        if report is not None:
            document["disagreement_rate"] = report.disagreement_rate
            document["flag_rate_delta"] = report.flag_rate_delta
            document["risk_shift"] = report.risk_shift
            document["comparisons"] = report.comparisons
            document["per_ua"] = report.per_ua()
        return document

    def metrics_lines(self) -> List[str]:
        """Prometheus lines the runtime appends to ``/metrics``."""
        state = self.state
        if state is None:
            return []
        report = self.report
        lines = [
            "# TYPE polygraph_rollout_in_flight gauge",
            f"polygraph_rollout_in_flight {1 if state.in_flight else 0}",
            "# TYPE polygraph_rollout_stage gauge",
            f"polygraph_rollout_stage {state.stage_index}",
            "# TYPE polygraph_rollout_stage_fraction gauge",
            f"polygraph_rollout_stage_fraction {state.stage_fraction:g}",
            "# TYPE polygraph_rollout_stage_age_seconds gauge",
            "polygraph_rollout_stage_age_seconds "
            f"{max(0.0, self._clock() - state.stage_started_at):.3f}",
        ]
        if report is not None:
            lines.extend(
                [
                    "# TYPE polygraph_rollout_disagreement_rate gauge",
                    f"polygraph_rollout_disagreement_rate "
                    f"{report.disagreement_rate:.6f}",
                    "# TYPE polygraph_rollout_comparisons_total counter",
                    f"polygraph_rollout_comparisons_total {report.comparisons}",
                ]
            )
        return lines

    def save(self) -> None:
        """Persist the current state (report snapshot included)."""
        state = self.state
        if state is None:
            return
        if self.report is not None:
            state.report = self.report.snapshot()
        save_state(state, self.state_path)

    # ------------------------------------------------------------------
    # internals

    def _build_controller(self) -> None:
        self.controller = CanaryController(
            self.state,
            self.config,
            self.guardrails,
            self.report,
            stats=self.runtime.runtime_stats if self.runtime is not None else None,
        )

    def _attach(self) -> None:
        if self.runtime is None:
            return
        self._shadow = ShadowScorer(
            self.candidate,
            self.report,
            stats=self.runtime.runtime_stats,
            on_comparison=self._maybe_rollback,
        )
        self.runtime.attach_rollout(self)

    def _detach(self) -> None:
        if self.runtime is not None:
            self.runtime.detach_rollout(self)
        shadow = self._shadow
        if shadow is not None:
            # No join: this may run on the shadow thread (auto-rollback
            # fires from on_comparison), which cannot join itself.  The
            # stopped thread exits once its pending rows are settled.
            shadow.stop()

    def _maybe_rollback(self) -> None:
        """Auto-rollback hook: runs after every piece of new evidence."""
        if not self.in_flight:
            return
        controller = self.controller
        if controller is None:
            return
        breach = controller.evaluate()
        if breach is not None:
            self.rollback(breach)

    def _invalidate_runtime_cache(self) -> None:
        runtime = self.runtime
        if runtime is not None and runtime.cache is not None:
            runtime.cache.invalidate(runtime.polygraph.model_generation)

    def _require_state(self) -> None:
        if self.state is None:
            raise RolloutError("no rollout started or resumed")

    def _require_in_flight(self) -> None:
        self._require_state()
        if not self.state.in_flight:
            raise RolloutError(
                f"rollout is {self.state.status}, not in flight"
            )
