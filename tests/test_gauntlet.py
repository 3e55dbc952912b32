"""Adversarial co-evolution gauntlet tests.

Covers the deterministic clock, the day ledger's digest contract, the
adversary's feedback loop, per-day traffic generation, the forced
(alarm-escalated) retraining path, a miniature end-to-end replay
exercising the chaos-drill rollback plus bit-determinism, and the
import boundary that keeps the gauntlet off the sharded cluster.
"""

import os
import subprocess
import sys
import threading
from datetime import date, timedelta

import numpy as np
import pytest

from repro.core.retraining import ModelRegistry, RetrainingOrchestrator
from repro.fraudbrowsers.marketplace import Marketplace
from repro.gauntlet import (
    AdversaryConfig,
    AdversaryDirector,
    DayLedger,
    DayTrafficFactory,
    DIGEST_COLUMNS,
    GauntletConfig,
    TIMING_COLUMNS,
    VirtualClock,
    run_gauntlet,
)
from repro.traffic.generator import TrafficConfig, TrafficSimulator
from repro.traffic.sessions import SessionKind


class TestVirtualClock:
    def test_starts_at_given_day(self):
        clock = VirtualClock(date(2023, 5, 5))
        assert clock.today == date(2023, 5, 5)

    def test_advance_moves_and_returns_new_day(self):
        clock = VirtualClock(date(2023, 5, 5))
        assert clock.advance() == date(2023, 5, 6)
        assert clock.advance(days=3) == date(2023, 5, 9)
        assert clock.today == date(2023, 5, 9)

    def test_advance_rejects_nonpositive(self):
        clock = VirtualClock(date(2023, 5, 5))
        with pytest.raises(ValueError):
            clock.advance(0)

    def test_time_is_monotonic_within_a_day(self):
        clock = VirtualClock(date(2023, 5, 5))
        first, second = clock.time(), clock.time()
        assert second > first
        # Ticks never leak into the next virtual day.
        midnight = (date(2023, 5, 5) - date(1970, 1, 1)).days * 86_400.0
        assert midnight <= first < midnight + 86_400.0
        assert second < midnight + 86_400.0

    def test_time_jumps_a_day_on_advance(self):
        clock = VirtualClock(date(2023, 5, 5))
        before = clock.time()
        clock.advance()
        assert clock.time() - before >= 86_400.0 - 1.0


def _ledger_row(**overrides):
    row = {name: 0 for name in DIGEST_COLUMNS}
    row.update({name: None for name in TIMING_COLUMNS})
    row.update(
        day="2023-05-05",
        new_release_keys=[],
        staged_version=None,
        rollout_status=None,
        rollout_stage=None,
        serving_version=1,
        breach=None,
    )
    row.update(overrides)
    return row


class TestDayLedger:
    def test_record_requires_every_column(self):
        ledger = DayLedger()
        with pytest.raises(ValueError, match="missing columns"):
            ledger.record(day="2023-05-05")

    def test_record_rejects_unknown_columns(self):
        ledger = DayLedger()
        with pytest.raises(ValueError, match="unknown columns"):
            ledger.record(**_ledger_row(), surprise=1)

    def test_digest_ignores_timing_columns(self):
        a, b = DayLedger(), DayLedger()
        a.record(**_ledger_row(p50_ms=1.0, p99_ms=5.0))
        b.record(**_ledger_row(p50_ms=9.0, p99_ms=500.0))
        assert a.digest() == b.digest()

    def test_digest_tracks_event_columns(self):
        a, b = DayLedger(), DayLedger()
        a.record(**_ledger_row(n_fraud=3))
        b.record(**_ledger_row(n_fraud=4))
        assert a.digest() != b.digest()

    def test_cells_roundtrip_preserves_digest(self):
        ledger = DayLedger()
        ledger.record(
            **_ledger_row(n_sessions=10, n_legit=8, n_fraud=2, p99_ms=4.2)
        )
        ledger.record(
            **_ledger_row(day="2023-05-06", retrained=1, staged_version=2)
        )
        rebuilt = DayLedger.from_cells(ledger.to_cells())
        assert len(rebuilt) == 2
        assert rebuilt.digest() == ledger.digest()
        assert rebuilt.column("p99_ms") == ledger.column("p99_ms")

    def test_summary_aggregates(self):
        ledger = DayLedger()
        ledger.record(
            **_ledger_row(
                n_sessions=10,
                n_legit=8,
                n_fraud=2,
                fraud_cat1=2,
                flagged_cat1=1,
                flagged_legit=1,
                retrained=1,
                rollbacks=1,
            )
        )
        summary = ledger.summary()
        assert summary["days"] == 1
        assert summary["per_category"]["cat1"]["detection_rate"] == 0.5
        assert summary["false_positive_rate"] == pytest.approx(1 / 8)
        assert summary["retrains"] == 1
        assert summary["rollbacks"] == 1


def _director(seed=3, **overrides):
    config = AdversaryConfig(**overrides)
    # Feedback-loop tests never touch the supply chain, so the vector
    # factory is not needed.
    return AdversaryDirector(config, Marketplace(seed=seed), None, seed=seed)


class TestAdversaryDirector:
    def test_no_adaptation_below_threshold(self):
        director = _director()
        made = director.observe(date(2023, 6, 1), {2: (2, 20)})
        assert made == []
        assert not director.buy_freshest

    def test_burned_category_triggers_retooling(self):
        director = _director()
        start_target = director.cat2_targets[director.cat2_index]
        made = director.observe(date(2023, 6, 1), {2: (10, 10)})
        actions = [a.action for a in made]
        assert any("rotate spoof target" in a for a in actions)
        assert any("buy freshest" in a for a in actions)
        assert any("shift" in a for a in actions)
        assert director.cat2_targets[director.cat2_index] != start_target
        assert director.buy_freshest

    def test_weight_moves_off_the_burned_category(self):
        director = _director()
        before = director.weights[2]
        director.observe(date(2023, 6, 1), {2: (10, 10)})
        assert director.weights[2] < before
        assert sum(director.weights.values()) == pytest.approx(1.0)

    def test_cooldown_blocks_back_to_back_adaptations(self):
        director = _director(cooldown_days=14)
        day = date(2023, 6, 1)
        assert director.observe(day, {2: (10, 10)})
        assert director.observe(day + timedelta(days=5), {1: (10, 10)}) == []
        assert director.observe(day + timedelta(days=14), {1: (10, 10)})

    def test_sparse_feedback_is_not_trusted(self):
        director = _director(min_feedback=10)
        made = director.observe(date(2023, 6, 1), {2: (5, 5)})
        assert made == []

    def test_feedback_determinism(self):
        days = [date(2023, 6, 1) + timedelta(days=i * 15) for i in range(3)]
        outcomes = []
        for _ in range(2):
            director = _director(seed=9)
            for day in days:
                director.observe(day, {2: (9, 10), 3: (0, 10)})
            outcomes.append(director.state_summary())
        assert outcomes[0] == outcomes[1]


class TestDayTrafficFactory:
    @pytest.fixture(scope="class")
    def factory(self):
        return DayTrafficFactory()

    def test_release_lands_on_its_ship_day(self, factory):
        # chrome-118 ships 2023-10-10; [start, end) semantics.
        assert "chrome-118" in factory.new_release_keys(
            date(2023, 10, 10), date(2023, 10, 11)
        )
        assert factory.new_release_keys(
            date(2023, 10, 11), date(2023, 10, 12)
        ) == []

    def test_legit_rows_shape(self, factory):
        rng = np.random.default_rng(5)
        rows = factory.legit_rows(date(2023, 10, 12), 40, rng, brave=2)
        assert len(rows) == 42
        kinds = {row["kind"] for row in rows}
        assert kinds == {SessionKind.LEGIT, SessionKind.DERIVATIVE}
        assert all(row["category"] == 0 for row in rows)

    def test_assemble_prefixes_session_ids(self, factory):
        rng = np.random.default_rng(5)
        rows = factory.legit_rows(date(2023, 10, 12), 10, rng)
        dataset = factory.assemble(rows, rng, sid_prefix="g7-d001")
        assert len(dataset) == 10
        assert all(
            str(sid).startswith("g7-d001-") for sid in dataset.session_ids
        )
        assert len(set(dataset.session_ids)) == 10


class TestForcedRetraining:
    @pytest.fixture(scope="class")
    def quiet(self):
        config = TrafficConfig(
            start=date(2023, 7, 20), end=date(2023, 9, 10), seed=47
        ).scaled(8_000)
        return TrafficSimulator(config).generate()

    def test_force_retrains_without_drift(self, quiet, tmp_path):
        registry = ModelRegistry(tmp_path)
        orchestrator = RetrainingOrchestrator(registry, accuracy_floor=0.9)
        orchestrator.bootstrap(quiet.rows(0, 5_000), on=date(2023, 9, 1))
        live = quiet.rows(5_000, len(quiet))
        # Without force, a clean window changes nothing.
        clean = orchestrator.scheduled_check(live, on=date(2023, 9, 10))
        assert not clean.retrained
        forced = orchestrator.scheduled_check(
            live, on=date(2023, 9, 10), force=True
        )
        assert forced.retrained and not forced.drift_detected
        assert registry.versions()[-1]["reason"] == (
            "forced refresh (flag-rate alarm)"
        )


def _mini_config(seed):
    """A 14-day replay across chrome-118 with the drill on day 8."""
    return GauntletConfig(
        start=date(2023, 10, 5),
        days=14,
        seed=seed,
        sessions_per_day=150,
        brave_per_day=1,
        bootstrap_days=90,
        bootstrap_sessions=5_000,
        max_window_sessions=9_000,
        monitor_window=1_200,
        monitor_min_observations=500,
        min_comparisons=25,
        min_stage_verdicts=8,
        drill_day=8,
        drill_stale_rows=1_200,
        attacks_per_day=6,
    )


def _shadow_threads():
    return [t for t in threading.enumerate() if t.name == "polygraph-shadow"]


class TestGauntletEndToEnd:
    @pytest.fixture(scope="class")
    def replay(self):
        before = set(_shadow_threads())
        result = run_gauntlet(_mini_config(seed=11))
        # Every rollout's shadow thread is gone once the replay returns:
        # the stopped ones exit on their own, the last is joined.
        started = [t for t in _shadow_threads() if t not in before]
        for thread in started:
            thread.join(timeout=5.0)
        assert not [t for t in started if t.is_alive()]
        return result

    def test_every_day_ledgered(self, replay):
        assert len(replay.ledger) == 14
        assert replay.summary["days"] == 14
        assert all(n > 0 for n in replay.ledger.column("n_sessions"))

    def test_drill_candidate_rolled_back(self, replay):
        assert replay.summary["rollbacks"] >= 1
        breaches = [b for b in replay.ledger.column("breach") if b]
        assert breaches  # the guardrail named its reason

    def test_identical_seeds_identical_digests(self, replay):
        again = run_gauntlet(_mini_config(seed=11))
        assert again.ledger.digest() == replay.ledger.digest()

    def test_different_seeds_diverge(self, replay):
        other = run_gauntlet(_mini_config(seed=12))
        assert other.ledger.digest() != replay.ledger.digest()


def test_importing_the_gauntlet_and_rollout_leaves_the_cluster_out():
    import repro

    probe = (
        "import sys, repro.gauntlet, repro.rollout; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.cluster')))"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout.strip() == "[]"
