"""Safe model rollout: shadow scoring, canary ramp, automatic rollback."""

import json
from datetime import date

import pytest

from repro.core.retraining import (
    STATUS_CANDIDATE,
    STATUS_LIVE,
    STATUS_ROLLED_BACK,
    ModelRegistry,
)
from repro.rollout import (
    CANARY,
    LIVE,
    ROLLED_BACK,
    SHADOW,
    DisagreementReport,
    GuardrailConfig,
    RolloutConfig,
    RolloutError,
    RolloutManager,
    RolloutState,
    load_state,
    save_state,
    session_bucket,
)
from repro.runtime.service import RuntimeScoringService
from repro.service.api import CollectionApp
from repro.service.scoring import ScoringService
from repro.traffic.replay import iter_payloads

SALT = "fixed-test-salt"


def _stage_wires(dataset, prefix, limit):
    """Replay wires with fresh session ids (dodges the dedup window)."""
    wires = []
    for idx, payload in enumerate(iter_payloads(dataset, limit)):
        body = json.loads(payload.to_wire().decode())
        body["sid"] = f"{prefix}-{idx}"
        wires.append(json.dumps(body, separators=(",", ":")).encode())
    return wires


def _fields(verdict):
    return (verdict.accepted, verdict.flagged, verdict.risk_factor)


def _break_model(polygraph):
    """Rotate the cluster table so every expectation is wrong."""
    model = polygraph.cluster_model
    k = model.config.n_clusters
    model.ua_to_cluster = {
        ua: (cluster + 1) % k for ua, cluster in model.ua_to_cluster.items()
    }
    model._rebuild_table()
    return polygraph


@pytest.fixture()
def registry(tmp_path, trained):
    """v1 live (the baseline) + v2 staged candidate (identical model)."""
    reg = ModelRegistry(tmp_path / "registry")
    reg.promote(trained, date(2023, 7, 1), "bootstrap")
    reg.stage_candidate(reg.load(1), date(2023, 8, 1), "retrained candidate")
    return reg


def _runtime(registry):
    return RuntimeScoringService(registry.load(1)).start()


def _manager(registry, runtime, tmp_path, **overrides):
    config = RolloutConfig(
        stages=overrides.pop("stages", (0.25, 1.0)),
        shadow_sample_rate=overrides.pop("shadow_sample_rate", 0.5),
        min_stage_verdicts=overrides.pop("min_stage_verdicts", 3),
    )
    guardrails = GuardrailConfig(
        max_disagreement_rate=overrides.pop("max_disagreement_rate", 0.02),
        max_flag_rate_delta=overrides.pop("max_flag_rate_delta", 0.02),
        min_comparisons=overrides.pop("min_comparisons", 25),
    )
    assert not overrides
    return RolloutManager(
        registry,
        runtime=runtime,
        config=config,
        guardrails=guardrails,
        state_path=tmp_path / "rollout.json",
    )


class TestSessionBucket:
    def test_deterministic_and_in_range(self):
        buckets = [session_bucket(SALT, f"s-{i}") for i in range(500)]
        assert buckets == [session_bucket(SALT, f"s-{i}") for i in range(500)]
        assert all(0.0 <= b < 1.0 for b in buckets)
        # Roughly uniform: both halves populated.
        assert 100 < sum(b < 0.5 for b in buckets) < 400

    def test_salt_changes_assignment(self):
        ids = [f"s-{i}" for i in range(200)]
        a = {sid: session_bucket("salt-a", sid) < 0.25 for sid in ids}
        b = {sid: session_bucket("salt-b", sid) < 0.25 for sid in ids}
        assert a != b

    def test_growing_stages_are_sticky(self):
        ids = [f"s-{i}" for i in range(1000)]
        at_1 = {sid for sid in ids if session_bucket(SALT, sid) < 0.01}
        at_25 = {sid for sid in ids if session_bucket(SALT, sid) < 0.25}
        assert at_1 <= at_25


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"stages": ()},
            {"stages": (0.5, 0.25)},
            {"stages": (0.0, 1.0)},
            {"stages": (0.5, 1.5)},
            {"shadow_sample_rate": 0.0},
            {"min_stage_verdicts": 0},
        ],
    )
    def test_bad_rollout_config(self, kwargs):
        with pytest.raises(ValueError):
            RolloutConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_disagreement_rate": 1.5},
            {"max_flag_rate_delta": -0.1},
            {"max_latency_p99_ms": 0},
            {"min_comparisons": 0},
        ],
    )
    def test_bad_guardrails(self, kwargs):
        with pytest.raises(ValueError):
            GuardrailConfig(**kwargs)


class TestRolloutState:
    def test_roundtrip(self, tmp_path):
        state = RolloutState(
            candidate_version=2,
            baseline_version=1,
            stages=(0.01, 1.0),
            shadow_sample_rate=0.5,
            salt=SALT,
            status=CANARY,
            stage_index=1,
        )
        state.record("advance", 12.5)
        path = tmp_path / "state.json"
        save_state(state, path)
        restored = load_state(path)
        assert restored == state
        assert restored.stage_fraction == 1.0

    def test_missing_file_is_none(self, tmp_path):
        assert load_state(tmp_path / "absent.json") is None

    def test_stage_fraction_by_status(self):
        state = RolloutState(2, 1, (0.25, 1.0), 0.5, SALT)
        assert state.stage_fraction == 0.0  # shadow
        state.status = CANARY
        state.stage_index = 0
        assert state.stage_fraction == 0.25
        state.status = LIVE
        assert state.stage_fraction == 1.0


class TestDisagreementReport:
    def test_rates_and_per_ua(self):
        report = DisagreementReport()
        for _ in range(8):
            report.record("chrome-112", False, None, False, None)
        report.record("firefox-119", False, None, True, 3)
        report.record("firefox-119", True, 2, True, 2)
        assert report.comparisons == 10
        assert report.disagreement_rate == pytest.approx(0.1)
        assert report.flag_rate_delta == pytest.approx(0.1)
        assert report.per_ua()["firefox-119"]["rate"] == pytest.approx(0.5)
        assert report.risk_shift > 0

    def test_snapshot_restore_roundtrip(self):
        report = DisagreementReport()
        report.record("chrome-112", False, None, True, 5)
        report.note_shed()
        restored = DisagreementReport.restore(report.snapshot())
        assert restored.snapshot() == report.snapshot()
        assert restored.disagreement_rate == report.disagreement_rate


class TestInferredVerdictMirroring:
    """Interim inferred *flags* are not comparison evidence; passes are.

    A candidate retrained to know a fresh release rightly disagrees
    with live's inferred false flags on it — those pairs must not feed
    the disagreement guardrail.  But live's inferred passes still
    mirror, so an overblocking candidate (the chaos drill) is caught.
    """

    class _Result:
        def __init__(self, flagged, inferred_release):
            self.flagged = flagged
            self.risk_factor = 2 if flagged else None
            self.inferred_release = inferred_release

    def test_only_inferred_flags_are_skipped(self, registry, tmp_path):
        manager = RolloutManager(
            registry, state_path=tmp_path / "rollout.json"
        )
        seen = []

        class _Shadow:
            def mirror(self, values, ua_key, flagged, risk):
                seen.append((ua_key, flagged))

        manager._shadow = _Shadow()
        manager.mirror(None, "chrome-200", self._Result(True, "chrome-114"))
        manager.mirror(None, "chrome-200", self._Result(False, "chrome-114"))
        manager.mirror(None, "chrome-114", self._Result(True, None))
        assert seen == [("chrome-200", False), ("chrome-114", True)]


class TestHealthyRollout:
    """A well-behaved candidate walks shadow → canary → live."""

    def test_end_to_end_promotion(self, registry, small_dataset, tmp_path):
        runtime = _runtime(registry)
        manager = _manager(registry, runtime, tmp_path)
        try:
            state = manager.start(2, salt=SALT)
            assert state.status == SHADOW and runtime.rollout is manager

            # Shadow: live serves everything, half of it mirrored.
            for wire in _stage_wires(small_dataset, "shadow", 300):
                runtime.score_wire(wire)
            assert manager.drain_shadow()
            assert manager.report.comparisons >= 25
            assert manager.report.disagreement_rate == 0.0
            assert manager.evaluate() is None

            invalidations_before = runtime.cache.invalidations
            for stage, prefix in enumerate(("canary0", "canary1")):
                state = manager.advance()
                assert state.status == CANARY and state.stage_index == stage
                # Exactly one cache invalidation per stage transition.
                assert (
                    runtime.cache.invalidations
                    == invalidations_before + stage + 1
                )
                for wire in _stage_wires(small_dataset, prefix, 300):
                    runtime.score_wire(wire)
                assert manager.drain_shadow()
                assert manager.controller.stage_verdicts >= 3

            generation_before = runtime.polygraph.model_generation
            state = manager.advance()
            assert state.status == LIVE
            # Promotion = install: one generation bump, whose swap
            # listener performs the transition's single invalidation.
            assert runtime.polygraph.model_generation == generation_before + 1
            assert runtime.cache.invalidations == invalidations_before + 3
            assert runtime.rollout is None
            assert registry.live_version == 2
            entry = registry.versions()[1]
            assert entry["version"] == 2 and entry["status"] == STATUS_LIVE

            # Post-promotion verdicts match the candidate model.
            wires = _stage_wires(small_dataset, "after", 200)
            baseline = ScoringService(registry.load(2))
            expected = [_fields(baseline.score_wire(w)) for w in wires]
            assert [_fields(runtime.score_wire(w)) for w in wires] == expected
        finally:
            manager.close()
            runtime.shutdown()

    def test_advance_requires_evidence(self, registry, tmp_path):
        runtime = _runtime(registry)
        manager = _manager(registry, runtime, tmp_path)
        try:
            manager.start(2, salt=SALT)
            with pytest.raises(RolloutError, match="not complete"):
                manager.advance()
        finally:
            manager.close()
            runtime.shutdown()

    def test_only_one_rollout_at_a_time(self, registry, tmp_path):
        runtime = _runtime(registry)
        manager = _manager(registry, runtime, tmp_path)
        try:
            manager.start(2, salt=SALT)
            with pytest.raises(RolloutError, match="in flight"):
                manager.start(2)
        finally:
            manager.close()
            runtime.shutdown()


class TestBrokenCandidate:
    """A bad candidate is caught mid-ramp and rolled back automatically."""

    def test_guardrail_breach_rolls_back(self, registry, small_dataset, tmp_path):
        broken_version = registry.stage_candidate(
            _break_model(registry.load(1)), date(2023, 8, 2), "broken"
        )
        runtime = _runtime(registry)
        manager = _manager(registry, runtime, tmp_path)
        rollbacks = []
        try:
            manager.begin(
                registry.load(broken_version),
                broken_version,
                salt=SALT,
                on_rollback=rollbacks.append,
            )
            # Straight into canary: the operator force-advances before
            # the shadow stage has gathered evidence.
            state = manager.advance(force=True)
            assert state.status == CANARY and state.stage_fraction == 0.25

            for wire in _stage_wires(small_dataset, "ramp", 400):
                runtime.score_wire(wire)
            manager.drain_shadow()

            state = manager.state
            assert state.status == ROLLED_BACK
            assert state.breach is not None
            assert state.breach["name"] in ("disagreement_rate", "flag_rate_delta")
            assert rollbacks and rollbacks[0] is not None
            assert runtime.rollout is None
            entry = [
                e
                for e in registry.versions()
                if e["version"] == broken_version
            ][0]
            assert entry["status"] == STATUS_ROLLED_BACK
            assert registry.live_version == 1

            # The runtime provably serves the prior model's verdicts —
            # including for sessions that were on the candidate arm.
            wires = _stage_wires(small_dataset, "post", 300)
            baseline = ScoringService(registry.load(1))
            expected = [_fields(baseline.score_wire(w)) for w in wires]
            assert [_fields(runtime.score_wire(w)) for w in wires] == expected
            # Sanity: the broken model would have disagreed on these.
            broken_scores = ScoringService(registry.load(broken_version))
            assert [
                _fields(broken_scores.score_wire(w))
                for w in _stage_wires(small_dataset, "post", 300)
            ] != expected
        finally:
            manager.close()
            runtime.shutdown()

    def test_rollback_after_promotion_reinstalls_baseline(
        self, registry, small_dataset, tmp_path
    ):
        runtime = _runtime(registry)
        manager = _manager(registry, runtime, tmp_path, min_comparisons=5)
        try:
            manager.start(2, salt=SALT)
            for wire in _stage_wires(small_dataset, "shadow", 100):
                runtime.score_wire(wire)
            manager.drain_shadow()
            manager.advance(force=True)
            manager.advance(force=True)
            state = manager.advance(force=True)
            assert state.status == LIVE

            generation = runtime.polygraph.model_generation
            state = manager.rollback()
            assert state.status == ROLLED_BACK
            # Baseline reinstalled: generation bumped again.
            assert runtime.polygraph.model_generation == generation + 1
            assert registry.live_version == 1
        finally:
            manager.close()
            runtime.shutdown()


class TestRestartResume:
    """Rollout state survives a process restart mid-canary."""

    def test_resume_keeps_stage_and_split(
        self, registry, small_dataset, tmp_path
    ):
        runtime = _runtime(registry)
        manager = _manager(registry, runtime, tmp_path, min_comparisons=5)
        sids = [f"resume-{i}" for i in range(200)]
        try:
            manager.start(2, salt=SALT)
            for wire in _stage_wires(small_dataset, "shadow", 100):
                runtime.score_wire(wire)
            manager.drain_shadow()
            state = manager.advance(force=True)
            assert state.status == CANARY and state.stage_index == 0
            routes_before = {sid: manager.route(sid) for sid in sids}
            comparisons_before = manager.report.comparisons
            manager.save()
        finally:
            manager.close()
            runtime.shutdown()  # the "crash"

        runtime2 = _runtime(registry)
        manager2 = _manager(registry, runtime2, tmp_path, min_comparisons=5)
        try:
            state = manager2.resume()
            assert state is not None and state.in_flight
            assert state.status == CANARY and state.stage_index == 0
            assert state.salt == SALT
            assert runtime2.rollout is manager2
            # Same salt, same stage → bit-identical sticky split.
            assert {sid: manager2.route(sid) for sid in sids} == routes_before
            # The disagreement evidence survived too.
            assert manager2.report.comparisons == comparisons_before
            # And the resumed rollout can still finish.
            manager2.advance(force=True)
            state = manager2.advance(force=True)
            assert state.status == LIVE
            assert registry.live_version == 2
        finally:
            manager2.close()
            runtime2.shutdown()

    def test_resume_without_state_is_noop(self, registry, tmp_path):
        manager = RolloutManager(registry, state_path=tmp_path / "none.json")
        assert manager.resume() is None
        assert not manager.in_flight

    def test_resume_aborts_when_candidate_missing(self, registry, tmp_path):
        path = tmp_path / "rollout.json"
        state = RolloutState(99, 1, (1.0,), 0.5, SALT, status=CANARY, stage_index=0)
        save_state(state, path)
        manager = RolloutManager(registry, state_path=path)
        resumed = manager.resume()
        assert resumed.status == "aborted"
        assert load_state(path).status == "aborted"


class TestOfflineManager:
    """The CLI drives the same state machine without a runtime."""

    def test_offline_walk_to_live(self, registry, tmp_path):
        manager = _manager(registry, None, tmp_path)
        manager.start(2, salt=SALT)
        manager.advance(force=True)
        manager.advance(force=True)
        state = manager.advance(force=True)
        assert state.status == LIVE
        assert registry.live_version == 2

    def test_abort_marks_candidate(self, registry, tmp_path):
        manager = _manager(registry, None, tmp_path)
        manager.start(2, salt=SALT)
        state = manager.abort()
        assert state.status == "aborted"
        assert registry.versions()[1]["status"] == STATUS_ROLLED_BACK
        assert registry.live_version == 1


class TestMetricsAndEndpoint:
    def test_metrics_lines(self, registry, small_dataset, tmp_path):
        runtime = _runtime(registry)
        manager = _manager(registry, runtime, tmp_path)
        try:
            manager.start(2, salt=SALT)
            for wire in _stage_wires(small_dataset, "m", 60):
                runtime.score_wire(wire)
            manager.drain_shadow()
            lines = runtime.runtime_metrics_lines()
            rendered = "\n".join(lines)
            # The generation gauge is absolute: no runtime prefix.
            assert any(
                line.startswith("polygraph_model_generation ") for line in lines
            )
            assert "polygraph_runtime_polygraph_model_generation" not in rendered
            assert "polygraph_rollout_in_flight 1" in rendered
            assert "polygraph_rollout_stage -1" in rendered
            assert "polygraph_rollout_disagreement_rate" in rendered
            assert "polygraph_rollout_stage_age_seconds" in rendered
            assert "polygraph_rollout_comparisons_total" in rendered
        finally:
            manager.close()
            runtime.shutdown()

    def test_rollout_endpoint(self, registry, tmp_path):
        runtime = _runtime(registry)
        manager = _manager(registry, runtime, tmp_path)

        def get(app, path):
            captured = {}

            def start_response(status, headers):
                captured["status"] = status

            body = b"".join(
                app({"REQUEST_METHOD": "GET", "PATH_INFO": path}, start_response)
            )
            return captured["status"], json.loads(body.decode())

        try:
            app = CollectionApp(runtime)
            status, body = get(app, "/rollout")
            assert status.startswith("404")

            manager.start(2, salt=SALT)
            status, body = get(app, "/rollout")
            assert status.startswith("200")
            assert body["status"] == SHADOW
            assert body["candidate_version"] == 2
            assert body["baseline_version"] == 1
            assert body["comparisons"] == 0
        finally:
            manager.close()
            runtime.shutdown()
