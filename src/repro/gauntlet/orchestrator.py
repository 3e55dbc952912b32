"""The adversarial co-evolution gauntlet.

An accelerated "production year": a :class:`VirtualClock` advances
day by day through the release calendar while the *live serving stack*
— the batched scoring runtime, flag-rate monitor, drift scheduler,
retraining orchestrator, shadow/canary rollout — runs exactly the code
it runs everywhere else.  Each virtual day:

1. releases due that day land in the traffic mix (the popularity model
   samples *at the day*, so a release is served the day it ships);
2. the :class:`~repro.gauntlet.adversary.AdversaryDirector` harvests
   yesterday's genuine sessions, buys stolen profiles and attacks,
   adapting its category mix and spoof targets to what the defender
   flagged;
3. every session is scored through one
   :class:`~repro.runtime.service.RuntimeScoringService` with one
   rollout manager attached — the pair ``serve --registry --runtime``
   builds;
4. the monitor and the Section 6.6 drift schedule decide whether the
   :class:`~repro.core.retraining.RetrainingOrchestrator` runs, and any
   staged candidate walks the shadow -> canary -> promote ramp through
   the day-boundary rollout (guardrail breaches roll back);
5. one row lands in the :class:`~repro.gauntlet.ledger.DayLedger`.

A scheduled **chaos drill** stages a deliberately broken candidate (a
stale training window with the unknown-UA policy misflipped to
``"flag"`` — the classic bad-config push) straight into canary; the
day-boundary guardrails must roll it back.  The drill is part of the
replay, so the acceptance bench proves the rollback path on every run.

Everything here is a deterministic function of
:class:`GauntletConfig` — identical configs produce bit-identical
ledger digests (see ``benchmarks/bench_production_year.py``).
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, replace
from datetime import date, timedelta
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.pipeline import BrowserPolygraph
from repro.core.retraining import ModelRegistry, RetrainingOrchestrator
from repro.coverage import CoverageConfig, CoverageTracker, RefreshPlanner
from repro.fraudbrowsers.marketplace import Marketplace
from repro.gauntlet.adversary import AdversaryConfig, AdversaryDirector
from repro.gauntlet.clock import VirtualClock
from repro.gauntlet.ledger import DayLedger
from repro.gauntlet.rollout import DayBoundaryRollout
from repro.gauntlet.traffic import DayTrafficFactory
from repro.rollout.config import GuardrailConfig, RolloutConfig
from repro.runtime.service import RuntimeScoringService
from repro.runtime.stats import percentile
from repro.service.monitoring import DriftScheduler, FlagRateMonitor
from repro.traffic.dataset import Dataset
from repro.traffic.generator import TrafficConfig, TrafficSimulator
from repro.traffic.replay import iter_wire_payloads

__all__ = ["GauntletConfig", "GauntletOrchestrator", "GauntletResult", "run_gauntlet"]


@dataclass(frozen=True)
class GauntletConfig:
    """Everything the replay is a function of."""

    # -- timeline ------------------------------------------------------
    start: date = date(2023, 5, 5)
    days: int = 185
    seed: int = 7

    # -- traffic -------------------------------------------------------
    sessions_per_day: int = 420
    brave_per_day: int = 2

    # -- bootstrap window (trains model v1) ----------------------------
    bootstrap_days: int = 120
    bootstrap_sessions: int = 18_000
    bootstrap_infection_rate: float = 0.01

    # -- retraining ----------------------------------------------------
    max_window_sessions: int = 30_000
    # The gauntlet's live window carries a fraud prevalence several
    # times the paper's training mix; majority-cluster accuracy prices
    # those sessions in, so the floor sits below the clean-window 0.985.
    accuracy_floor: float = 0.97
    jobs: int = 1
    drift_lag_days: int = 4

    # -- flag-rate monitor ---------------------------------------------
    monitor_window: int = 4_000
    monitor_expected_rate: float = 0.02
    monitor_tolerance: float = 4.0
    monitor_min_observations: int = 1_500
    alarm_cooldown_days: int = 7

    # -- rollout ramp (sized for gauntlet traffic volumes) -------------
    canary_stages: Tuple[float, ...] = (0.05, 0.25, 1.0)
    shadow_sample_rate: float = 0.25
    min_stage_verdicts: int = 25
    min_comparisons: int = 80
    max_disagreement_rate: float = 0.05
    max_flag_rate_delta: float = 0.03

    # -- chaos drill ---------------------------------------------------
    drill_day: Optional[int] = 40  # day index; None disables the drill
    drill_stale_rows: int = 2_000

    # -- adversary -----------------------------------------------------
    attacks_per_day: int = 12
    infection_rate: float = 0.025

    # -- coverage intelligence -----------------------------------------
    # The release-coverage subsystem (repro.coverage): serve-time
    # unknown-UA tracking with calendar bands plus the proactive
    # RefreshPlanner.  ``coverage=False`` replays PR 8's reactive
    # behaviour (the blind-window baseline the bench diffs against).
    coverage: bool = True
    # Policy every gauntlet-trained model serves with.  "infer" scores
    # unknown releases against their nearest known neighbour — the
    # interim verdict that closes the detection half of the blind
    # window.  (The library-wide PipelineConfig default stays "ignore".)
    unknown_ua_policy: str = "infer"
    coverage_window: int = 4_000
    coverage_min_observations: int = 400
    coverage_baseline_rate: float = 0.02
    coverage_adoption_allowance: float = 0.25
    coverage_adoption_days: int = 7
    coverage_cooldown_days: int = 4

    # -- storage -------------------------------------------------------
    workdir: Optional[str] = None  # model registry root; tempdir if None

    def end(self) -> date:
        """First day *after* the replay window."""
        return self.start + timedelta(days=self.days)


@dataclass
class GauntletResult:
    """Everything a run produced."""

    config: GauntletConfig
    ledger: DayLedger
    summary: dict
    adversary: dict
    rollout_events: List[Tuple[str, int, str]]
    retraining: List[dict]
    registry_versions: List[dict]
    # ISO day the chaos drill's candidate went to canary (None: no drill).
    drill_day: Optional[str] = None


def run_gauntlet(config: GauntletConfig) -> GauntletResult:
    """Convenience entry: build an orchestrator and run it to the end."""
    return GauntletOrchestrator(config).run()


class GauntletOrchestrator:
    """Owns the replay loop and every subsystem it drives."""

    def __init__(self, config: GauntletConfig) -> None:
        self.config = config
        self.clock = VirtualClock(config.start)
        self.factory = DayTrafficFactory()
        self.marketplace = Marketplace(seed=config.seed)
        self.adversary = AdversaryDirector(
            AdversaryConfig(
                attacks_per_day=config.attacks_per_day,
                infection_rate=config.infection_rate,
            ),
            self.marketplace,
            self.factory.factory,
            seed=config.seed,
        )
        self.monitor = FlagRateMonitor(
            window=config.monitor_window,
            expected_rate=config.monitor_expected_rate,
            tolerance_factor=config.monitor_tolerance,
            min_observations=config.monitor_min_observations,
        )
        self.scheduler = DriftScheduler(
            calendar=self.factory.calendar, lag_days=config.drift_lag_days
        )
        self.ledger = DayLedger()

        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        self.registry: Optional[ModelRegistry] = None
        self.retrainer: Optional[RetrainingOrchestrator] = None
        self.runtime: Optional[RuntimeScoringService] = None
        self.rollout: Optional[DayBoundaryRollout] = None
        self._bootstrap_train: Optional[Dataset] = None
        self.coverage_tracker: Optional[CoverageTracker] = None
        self.planner: Optional[RefreshPlanner] = None
        self._since_check: List[Dataset] = []
        self._deferred_check = False
        self._deferred_force = False
        self._last_alarm_check: Optional[date] = None
        self._drill_done = False

    # ------------------------------------------------------------------
    # setup

    def _workdir(self) -> Path:
        if self.config.workdir is not None:
            path = Path(self.config.workdir)
            path.mkdir(parents=True, exist_ok=True)
            return path
        self._tmp = tempfile.TemporaryDirectory(prefix="gauntlet-")
        return Path(self._tmp.name)

    def bootstrap(self) -> None:
        """Train v1 on the pre-replay window and start serving it."""
        cfg = self.config
        window = TrafficConfig().scaled(cfg.bootstrap_sessions)
        window = replace(
            window,
            start=cfg.start - timedelta(days=cfg.bootstrap_days),
            end=cfg.start,
            seed=cfg.seed,
        )
        simulator = TrafficSimulator(
            window,
            model=self.factory.model,
            calendar=self.factory.calendar,
            tag_model=self.factory.tag_model,
        )
        train = simulator.generate()
        self._bootstrap_train = train

        self.registry = ModelRegistry(self._workdir())
        pipeline_config = (
            PipelineConfig(unknown_ua_policy=cfg.unknown_ua_policy)
            if cfg.unknown_ua_policy != "ignore"
            else None
        )
        self.retrainer = RetrainingOrchestrator(
            self.registry,
            accuracy_floor=cfg.accuracy_floor,
            max_window_sessions=cfg.max_window_sessions,
            jobs=cfg.jobs,
            pipeline_config=pipeline_config,
        )
        self.retrainer.bootstrap(train, on=cfg.start)

        if cfg.coverage:
            # The tracker is fed centrally from each day's dataset (in
            # row order) rather than from inside the concurrent scoring
            # path: its state feeds the planner, which feeds the ledger
            # digest, so it must be a pure function of the seed.
            self.coverage_tracker = CoverageTracker(
                calendar=self.factory.calendar,
                config=CoverageConfig(
                    window=cfg.coverage_window,
                    min_observations=cfg.coverage_min_observations,
                    baseline_rate=cfg.coverage_baseline_rate,
                    adoption_allowance=cfg.coverage_adoption_allowance,
                    adoption_days=cfg.coverage_adoption_days,
                ),
            )
            self.planner = RefreshPlanner(
                self.coverage_tracker,
                calendar=self.factory.calendar,
                cooldown_days=cfg.coverage_cooldown_days,
            )

        self.runtime = RuntimeScoringService(self.registry.load()).start()
        self.rollout = DayBoundaryRollout(
            self.registry,
            self.runtime,
            clock=self.clock.time,
            config=RolloutConfig(
                stages=cfg.canary_stages,
                shadow_sample_rate=cfg.shadow_sample_rate,
                min_stage_verdicts=cfg.min_stage_verdicts,
            ),
            guardrails=GuardrailConfig(
                max_disagreement_rate=cfg.max_disagreement_rate,
                max_flag_rate_delta=cfg.max_flag_rate_delta,
                min_comparisons=cfg.min_comparisons,
            ),
            seed=cfg.seed,
        )
        self.retrainer.rollout = self.rollout

        # Pre-replay infections: the marketplace opens with aged stock
        # harvested from the bootstrap window, so shelf age matters from
        # day one.
        legit = train.subset(~train.is_fraud())
        self.marketplace.harvest_from_traffic(
            legit, infection_rate=self.config.bootstrap_infection_rate
        )

    # ------------------------------------------------------------------
    # the day loop

    def run(self) -> GauntletResult:
        """Replay every configured day; always tears the runtime down."""
        self.bootstrap()
        planned = {
            plan.check_date: plan
            for plan in self.scheduler.plan(self.config.start, self.config.end())
        }
        try:
            for index in range(self.config.days):
                self._run_day(index, planned)
                self.clock.advance()
        finally:
            self.shutdown()
        return GauntletResult(
            config=self.config,
            ledger=self.ledger,
            summary=self.ledger.summary(),
            adversary=self.adversary.state_summary(),
            rollout_events=list(self.rollout.events),
            retraining=[
                {
                    "check_date": o.check_date.isoformat(),
                    "drift_detected": o.drift_detected,
                    "retrained": o.retrained,
                    "promoted": o.promoted,
                    "staged_version": o.staged_version,
                    "detail": o.detail,
                }
                for o in self.retrainer.history
            ],
            registry_versions=self.registry.versions(),
            drill_day=self._drill_day,
        )

    def _run_day(self, index: int, planned: Dict[date, object]) -> None:
        cfg = self.config
        day = self.clock.today
        rng = np.random.default_rng([cfg.seed, index])
        new_keys = self.factory.new_release_keys(day, day + timedelta(days=1))

        drilled = self._maybe_drill(index, day)

        # -- traffic ---------------------------------------------------
        rows = self.factory.legit_rows(
            day, cfg.sessions_per_day, rng, brave=cfg.brave_per_day
        )
        rows.extend(self.adversary.attack_rows(day))
        dataset = self.factory.assemble(
            rows, rng, sid_prefix=f"g{cfg.seed}-d{index:03d}"
        )

        # -- scoring through the live runtime --------------------------
        wires = list(iter_wire_payloads(dataset))
        verdicts = self.runtime.score_many(wires)
        flags = np.array(
            [v.accepted and v.flagged for v in verdicts], dtype=bool
        )
        latencies = [v.latency_ms for v in verdicts if v.accepted]
        for flagged in flags:
            self.monitor.observe(bool(flagged))

        # -- detection tallies and adversary feedback ------------------
        categories = dataset.truth_category
        fraud_counts = {c: int((categories == c).sum()) for c in (1, 2, 3, 4)}
        flagged_counts = {
            c: int(flags[categories == c].sum()) for c in (1, 2, 3, 4)
        }
        legit_mask = categories == 0
        self.adversary.observe(
            day,
            {c: (flagged_counts[c], fraud_counts[c]) for c in (1, 2, 3, 4)},
        )
        adaptations_today = sum(
            1 for a in self.adversary.adaptations if a.day == day
        )
        self.adversary.harvest(dataset.subset(legit_mask))

        # -- blind-window accounting and coverage intelligence ---------
        # "Unknown" is judged against the serving model's release table
        # as of the start of the day — the operator's view, not the
        # adversary's.  Tallied even with coverage off so the baseline
        # run measures the same blind window it leaves open.
        table = self.retrainer.current.cluster_model.ua_to_cluster
        known_mask = np.array(
            [str(key) in table for key in dataset.ua_keys], dtype=bool
        )
        unknown_mask = ~known_mask
        unknown_fraud_mask = unknown_mask & ~legit_mask
        unknown_legit_mask = unknown_mask & legit_mask
        decision = None
        if self.coverage_tracker is not None:
            self.coverage_tracker.set_known_keys(
                table, generation=self.registry.live_version
            )
            self.coverage_tracker.observe_many(
                [str(key) for key in dataset.ua_keys], day=day
            )
            decision = self.planner.decide(day)

        # -- drift checks (scheduled, alarm-forced, planner, retry) ----
        self._since_check.append(dataset)
        outcome = self._maybe_check(day, planned, decision)
        if (
            outcome is not None
            and outcome.retrained
            and self.planner is not None
        ):
            # Any retrain (scheduled or planner-driven) restarts the
            # planner cooldown — the window it wanted refreshed is now
            # in flight.
            self.planner.note_retrain(day)

        # -- rollout day boundary --------------------------------------
        self.rollout.note_traffic(
            str(sid) for sid in dataset.session_ids
        )
        event = self.rollout.day_step()

        state = self.rollout.state
        in_flight = state is not None and state.in_flight
        self.ledger.record(
            day=day.isoformat(),
            new_releases=len(new_keys),
            new_release_keys=list(new_keys),
            n_sessions=len(dataset),
            n_legit=int(legit_mask.sum()),
            n_fraud=int((~legit_mask).sum()),
            fraud_cat1=fraud_counts[1],
            fraud_cat2=fraud_counts[2],
            fraud_cat3=fraud_counts[3],
            fraud_cat4=fraud_counts[4],
            flagged_legit=int(flags[legit_mask].sum()),
            flagged_cat1=flagged_counts[1],
            flagged_cat2=flagged_counts[2],
            flagged_cat3=flagged_counts[3],
            flagged_cat4=flagged_counts[4],
            monitor_alarm=bool(self.monitor.alarm),
            drift_checked=int(outcome is not None),
            drift_detected=int(outcome.drift_detected if outcome else 0),
            retrained=int(outcome.retrained if outcome else 0),
            staged_version=(outcome.staged_version if outcome else None)
            or (self._drill_version if drilled else None),
            promotions=int(event.action == "promote"),
            rollbacks=int(event.action == "rollback"),
            rollout_status=state.status if state is not None else None,
            rollout_stage=state.stage_index if in_flight else None,
            serving_version=self.registry.live_version,
            marketplace_stock=self.marketplace.stock,
            stock_age_days=round(self.marketplace.average_age_days(day), 2),
            adaptations=adaptations_today,
            unknown_sessions=int(unknown_mask.sum()),
            unknown_fraud=int(unknown_fraud_mask.sum()),
            unknown_fraud_flagged=int(flags[unknown_fraud_mask].sum()),
            unknown_legit=int(unknown_legit_mask.sum()),
            unknown_legit_flagged=int(flags[unknown_legit_mask].sum()),
            coverage_trigger=int(decision.triggered) if decision else 0,
            coverage_reason=(
                decision.reason if decision and decision.triggered else None
            ),
            p50_ms=round(percentile(latencies, 50), 3),
            p99_ms=round(percentile(latencies, 99), 3),
            breach=event.breach.name if event.breach is not None else None,
        )

    # ------------------------------------------------------------------
    # drift checks

    def _maybe_check(self, day: date, planned: Dict[date, object], decision=None):
        """Run a retraining check if today warrants one."""
        due = day in planned
        alarm = (
            self.monitor.alarm
            and (
                self._last_alarm_check is None
                or (day - self._last_alarm_check).days
                >= self.config.alarm_cooldown_days
            )
        )
        retry = self._deferred_check and not self.rollout.in_flight
        coverage = decision is not None and decision.retrain
        if not (due or alarm or retry or coverage):
            return None
        # An alarm with a clean drift report still forces a window
        # refresh: the monitor is the only signal that catches the
        # model's unknown-UA blind spot growing between drift episodes.
        # A coverage-planner trigger (first-day release, band breach)
        # forces one for the same reason, without waiting for the alarm.
        force = (
            alarm
            or (retry and self._deferred_force)
            or (coverage and decision.force)
        )
        live = Dataset.concatenate(self._since_check)
        outcome = self.retrainer.scheduled_check(live, on=day, force=force)
        if alarm:
            self._last_alarm_check = day
        deferred = (
            outcome.drift_detected or force
        ) and not outcome.retrained
        self._deferred_check = deferred
        self._deferred_force = deferred and force
        if not deferred:
            self._since_check = []
        return outcome

    # ------------------------------------------------------------------
    # the chaos drill

    _drill_version: Optional[int] = None
    _drill_day: Optional[str] = None

    def _maybe_drill(self, index: int, day: date) -> bool:
        """Stage the bad-config candidate straight into canary.

        The candidate is trained on a stale slice of the bootstrap
        window with ``unknown_ua_policy="flag"`` — it flags every
        release that shipped since, so the day-boundary disagreement
        guardrail must catch it.
        """
        cfg = self.config
        if (
            cfg.drill_day is None
            or self._drill_done
            or index < cfg.drill_day
            or self.rollout.in_flight
        ):
            return False
        stale = self._bootstrap_train.rows(
            0, min(len(self._bootstrap_train), cfg.drill_stale_rows)
        )
        candidate = BrowserPolygraph(
            config=PipelineConfig(unknown_ua_policy="flag")
        ).fit(stale, jobs=cfg.jobs)
        version = self.registry.stage_candidate(
            candidate, day, "chaos drill: stale window, unknown-ua misconfig"
        )
        self._drill_version = version
        self._drill_day = day.isoformat()
        self.rollout.begin(candidate, version)
        self.rollout.force_advance()  # shadow -> canary stage 0
        self._drill_done = True
        return True

    # ------------------------------------------------------------------
    # teardown

    def shutdown(self) -> None:
        """Tear everything down (idempotent)."""
        if self.rollout is not None:
            self.rollout.close()
        if self.runtime is not None:
            self.runtime.shutdown(drain=True)
            self.runtime = None
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None
