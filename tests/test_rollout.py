"""Safe model rollout: shadow scoring, canary ramp, automatic rollback."""

import json
import sys
import threading
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detection import DetectionResult
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
    ShadowScorer,
    load_state,
    save_state,
    session_bucket,
)
from repro.rollout.shadow import MAX_PENDING_ROWS
from repro.runtime.service import RuntimeScoringService
from repro.runtime.stats import RuntimeStats
from repro.service.api import CollectionApp
from repro.service.scoring import ScoringService
from repro.sessions import SessionScoringService
from repro.traffic.events import EventType, SessionEvent
from repro.traffic.replay import iter_payloads

from tests.exposition_check import collected

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


class _Candidate:
    """A candidate's answer for one row: only what the report reads."""

    def __init__(self, flagged, risk_factor):
        self.flagged = flagged
        self.risk_factor = risk_factor


def _fold(report, comparisons):
    """``record_many`` over (ua_key, live flagged, live risk, candidate
    flagged, candidate risk) tuples, as one batch."""
    report.record_many(
        [((), ua_key, flagged, risk) for ua_key, flagged, risk, _, _ in comparisons],
        [_Candidate(flagged, risk) for _, _, _, flagged, risk in comparisons],
    )


class TestDisagreementReport:
    def test_rates_and_per_ua(self):
        report = DisagreementReport()
        _fold(report, [("chrome-112", False, None, False, None)] * 8)
        _fold(
            report,
            [
                ("firefox-119", False, None, True, 3),
                ("firefox-119", True, 2, True, 2),
            ],
        )
        assert report.comparisons == 10
        assert report.disagreement_rate == pytest.approx(0.1)
        assert report.flag_rate_delta == pytest.approx(0.1)
        assert report.per_ua()["firefox-119"]["rate"] == pytest.approx(0.5)
        assert report.risk_shift > 0

    def test_snapshot_restore_roundtrip(self):
        report = DisagreementReport()
        _fold(report, [("chrome-112", False, None, True, 5)])
        report.note_shed(1)
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
            def mirror_many(self, rows):
                seen.append([(ua_key, flagged) for _, ua_key, flagged, _ in rows])

        manager._shadow = _Shadow()
        manager.mirror_many(
            [
                (None, "chrome-200", self._Result(True, "chrome-114")),
                (None, "chrome-200", self._Result(False, "chrome-114")),
                (None, "chrome-114", self._Result(True, None)),
            ]
        )
        # One shadow call for the batch, inferred flags filtered out.
        assert seen == [[("chrome-200", False), ("chrome-114", True)]]


class _StubDetector:
    """A candidate detector driven by the mirrored rows themselves.

    A row's ``values`` carry the candidate's answer: ``(flagged, risk)``
    with ``-1`` for no risk.  ``gate`` holds a call in flight; a batch
    holding the UA key ``"boom"`` raises.
    """

    def __init__(self):
        self.gate = threading.Event()
        self.gate.set()
        self.entered = threading.Event()
        self.calls = []  # rows per candidate call

    def evaluate_vectors(self, matrix, ua_keys):
        self.entered.set()
        assert self.gate.wait(timeout=5.0)
        self.calls.append(len(ua_keys))
        if "boom" in ua_keys:
            raise ValueError("candidate failed")
        return [
            _Candidate(bool(flagged), None if risk < 0 else int(risk))
            for flagged, risk in matrix
        ]


class _StubCandidate:
    is_fitted = True

    def __init__(self):
        self.detector = _StubDetector()

    def detection_snapshot(self):
        return 1, self.detector


def _row(ua_key="chrome-112", flagged=False, risk=None, answer=(False, None)):
    """One mirrored row whose candidate answer is ``answer``."""
    candidate_flagged, candidate_risk = answer
    values = (int(candidate_flagged), -1 if candidate_risk is None else candidate_risk)
    return values, ua_key, flagged, risk


def _shadow_threads():
    return [t for t in threading.enumerate() if t.name == "polygraph-shadow"]


class TestShadowScorer:
    """One thread, one bounded list of pending rows, one call per batch."""

    def _scorer(self, **kwargs):
        candidate = _StubCandidate()
        scorer = ShadowScorer(candidate, DisagreementReport(), **kwargs)
        return scorer, candidate.detector

    def test_compares_every_accepted_row(self):
        scorer, _ = self._scorer()
        thread = scorer._thread
        for _ in range(4):
            assert scorer.mirror_many([_row() for _ in range(8)]) == 8
        scorer.shutdown(drain=True)
        assert scorer.report.comparisons == 32
        assert scorer.report.shed == 0
        assert not thread.is_alive()

    def test_one_candidate_call_and_hook_per_drained_batch(self):
        hooks = []
        scorer, detector = self._scorer(on_comparison=lambda: hooks.append(1))
        detector.gate.clear()
        scorer.mirror_many([_row()])
        assert detector.entered.wait(timeout=5.0)  # first batch in flight
        scorer.mirror_many([_row()] * 3)
        scorer.mirror_many([_row()] * 4)
        detector.gate.set()
        assert scorer.drain()
        assert detector.calls == [1, 7]
        assert hooks == [1, 1]
        scorer.shutdown()

    def test_rows_beyond_the_bound_are_shed(self):
        stats = RuntimeStats()
        scorer, detector = self._scorer(stats=stats)
        detector.gate.clear()
        assert scorer.mirror_many([_row()]) == 1
        assert detector.entered.wait(timeout=5.0)  # swapped out, not pending
        rows = [_row()] * (MAX_PENDING_ROWS - 2)
        assert scorer.mirror_many(rows) == MAX_PENDING_ROWS - 2
        assert scorer.mirror_many([_row()] * 5) == 2  # what fits
        assert scorer.mirror_many([_row()]) == 0
        assert scorer.report.shed == 4
        assert stats.counter("requests_shed") == 4
        assert collected(stats)["polygraph_runtime_queue_depth"] == MAX_PENDING_ROWS
        detector.gate.set()
        assert scorer.drain()
        assert scorer.report.comparisons == 1 + MAX_PENDING_ROWS
        scorer.shutdown()

    def test_drain_on_shutdown_leaves_nothing_unanswered(self):
        stats = RuntimeStats()
        scorer, detector = self._scorer(stats=stats)
        detector.gate.clear()
        for _ in range(5):
            assert scorer.mirror_many([_row()]) == 1
        detector.gate.set()
        scorer.shutdown(drain=True)
        assert scorer.report.comparisons == 5
        assert collected(stats)["polygraph_runtime_queue_depth"] == 0

    def test_nondrain_shutdown_discards_backlog(self):
        scorer, detector = self._scorer()
        detector.gate.clear()
        scorer.mirror_many([_row()])
        assert detector.entered.wait(timeout=5.0)
        assert scorer.mirror_many([_row(), _row()]) == 2
        stopper = threading.Thread(
            target=scorer.shutdown, kwargs={"drain": False}, daemon=True
        )
        stopper.start()
        # shutdown drops the backlog before it joins the thread: release
        # the batch in flight only once the backlog is out of its reach.
        while stopper.is_alive() and scorer._pending:
            stopper.join(timeout=0.01)
        detector.gate.set()
        stopper.join(timeout=5.0)
        assert not stopper.is_alive()
        assert detector.calls == [1]
        assert scorer.report.comparisons == 1

    def test_refused_after_stop(self):
        scorer, detector = self._scorer()
        scorer.stop()
        assert scorer.mirror_many([_row()]) == 0
        scorer.shutdown()
        assert scorer.mirror_many([_row()]) == 0
        assert detector.calls == []
        assert scorer.report.comparisons == scorer.report.shed == 0

    def test_stop_settles_what_is_pending_then_exits(self):
        scorer, detector = self._scorer()
        detector.gate.clear()
        assert scorer.mirror_many([_row()]) == 1
        assert detector.entered.wait(timeout=5.0)
        assert scorer.mirror_many([_row(), _row()]) == 2
        scorer.stop()
        detector.gate.set()
        scorer._thread.join(timeout=5.0)
        assert not scorer._thread.is_alive()
        assert detector.calls == [1, 2]
        assert scorer.report.comparisons == 3

    def test_survives_a_raising_candidate(self):
        hooks = []
        scorer, detector = self._scorer(on_comparison=lambda: hooks.append(1))
        assert scorer.mirror_many([_row("boom"), _row()]) == 2
        # The failed batch is settled — its rows shed, mirrored but never
        # compared — so drain does not sit out its timeout.
        assert scorer.drain(timeout=1.0)
        assert (scorer.report.comparisons, scorer.report.shed) == (0, 2)
        assert hooks == []
        assert scorer.mirror_many([_row(), _row(answer=(True, 4))]) == 2
        assert scorer.drain(timeout=1.0)
        assert (scorer.report.comparisons, scorer.report.mismatches) == (2, 1)
        assert hooks == [1]
        assert detector.calls == [2, 2]
        scorer.shutdown()


    def test_concurrent_mirrors_lose_no_row(self):
        """More producers than cores, a 10 µs switch interval: every row
        handed over is either compared or shed, none lost or doubled."""
        scorer, _ = self._scorer()
        per_thread, batch = 300, [_row(), _row("firefox-119")]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            producers = [
                threading.Thread(
                    target=lambda: [
                        scorer.mirror_many(batch) for _ in range(per_thread)
                    ]
                )
                for _ in range(6)
            ]
            for producer in producers:
                producer.start()
            for producer in producers:
                producer.join(timeout=30.0)
            assert not any(producer.is_alive() for producer in producers)
            assert scorer.drain()
        finally:
            sys.setswitchinterval(switch)
            scorer.shutdown()
        report = scorer.report
        assert report.comparisons + report.shed == 6 * per_thread * len(batch)
        per_ua = report.per_ua().values()
        assert sum(entry["comparisons"] for entry in per_ua) == report.comparisons


class _ParentReport(DisagreementReport):
    """The per-row fold as it stood before batches were folded at once.

    A frozen copy of ``DisagreementReport.record`` (and, in
    :func:`_parent_mirror`, of the manager's per-row ``mirror`` filter),
    kept as the reference ``record_many`` must equal.
    """

    def record(
        self, ua_key, live_flagged, live_risk, candidate_flagged, candidate_risk
    ):
        mismatch = (live_flagged, live_risk) != (candidate_flagged, candidate_risk)
        with self._lock:
            self.comparisons += 1
            if mismatch:
                self.mismatches += 1
            if live_flagged:
                self.live_flagged += 1
            if candidate_flagged:
                self.candidate_flagged += 1
            entry = self._per_ua.setdefault(ua_key, [0, 0])
            entry[0] += 1
            if mismatch:
                entry[1] += 1
            self._live_risk[live_risk if live_risk is not None else -1] += 1
            self._candidate_risk[
                candidate_risk if candidate_risk is not None else -1
            ] += 1


def _parent_mirror(reference, ua_key, result, answer):
    if getattr(result, "inferred_release", None) is not None and result.flagged:
        return
    reference.record(ua_key, result.flagged, result.risk_factor, *answer)


_UA_KEYS = [
    f"{vendor}-{version}"
    for vendor in ("chrome", "firefox", "edge", "opera")
    for version in (110, 111, 112, 113, 200)
] + ["Mozilla/5.0 (X11; Linux x86_64)", "unknown-unknown"]
_RISK = st.one_of(st.none(), st.integers(0, 20))
# (ua_key, live flagged, live risk, inferred release, candidate answer,
#  cache hit)
_MIRRORED = st.tuples(
    st.sampled_from(_UA_KEYS),
    st.booleans(),
    _RISK,
    st.one_of(st.none(), st.sampled_from(_UA_KEYS)),
    st.tuples(st.booleans(), _RISK),
    st.booleans(),
)


class TestRecordManyEqualsPerRowRecord:
    @settings(max_examples=100, deadline=None)
    @given(
        stream=st.lists(_MIRRORED, max_size=80),
        cuts=st.lists(st.integers(1, 16), max_size=12),
    )
    def test_any_cut_folds_like_the_per_row_record(self, stream, cuts):
        reference = _ParentReport()
        manager = RolloutManager(None, state_path="unused-rollout.json")
        scorer = ShadowScorer(_StubCandidate(), DisagreementReport())
        manager._shadow = scorer
        batches, start = [], 0
        for size in cuts + [len(stream)]:
            batches.append(stream[start:start + size])
            start += size
        try:
            for batch in batches:
                # score_many mirrors a batch's cache hits before its misses.
                rows = []
                for ua_key, flagged, risk, inferred, answer, _ in sorted(
                    batch, key=lambda mirrored: not mirrored[5]
                ):
                    live = DetectionResult(
                        ua_key=ua_key,
                        predicted_cluster=0,
                        expected_cluster=0,
                        flagged=flagged,
                        risk_factor=risk,
                        inferred_release=inferred,
                    )
                    rows.append((_row(answer=answer)[0], ua_key, live))
                    _parent_mirror(reference, ua_key, live, answer)
                manager.mirror_many(rows)
            assert scorer.drain()
        finally:
            scorer.shutdown()
        assert scorer.report.snapshot() == reference.snapshot()


class TestSessionsStayOnOneArm:
    """Every event of a session is scored by the arm its session id
    routes to, whatever id the event is scored under (``sid@seq``)."""

    def test_a_session_never_flaps_between_models(
        self, tmp_path, trained, small_dataset
    ):
        registry = ModelRegistry(tmp_path / "registry")
        registry.promote(trained, date(2023, 7, 1), "bootstrap")
        # A candidate that flags every known release: the arm that
        # scored an event shows in its verdict.
        registry.stage_candidate(
            _break_model(registry.load(1)), date(2023, 8, 1), "broken"
        )
        runtime = _runtime(registry)
        manager = _manager(
            registry, runtime, tmp_path, shadow_sample_rate=0.01,
            min_comparisons=10**9,
        )
        live, candidate = ScoringService(registry.load(1)), ScoringService(
            registry.load(2)
        )
        payloads = [
            p for p in iter_payloads(small_dataset, 400)
            if not live.score_wire(p.to_wire()).flagged
            and candidate.score_wire(p.to_wire()).flagged
        ][:60]
        assert len(payloads) == 60
        try:
            manager.start(2, salt=SALT)
            assert manager.advance(force=True).status == CANARY
            sessions = SessionScoringService(runtime, ttl_seconds=1e9)
            events = [
                SessionEvent(
                    f"arm-{number}", EventType.FOCUS if seq else EventType.PAGE_LOAD,
                    seq, 1000.0 + seq, payload.user_agent, payload.values,
                )
                for number, payload in enumerate(payloads)
                for seq in range(5)
            ]
            observed = sessions.observe_many([e.to_wire() for e in events])
            arms = {}
            for event, observation in zip(events, observed):
                assert observation.verdict.accepted
                on_candidate = manager.route(event.session_id)[0]
                assert observation.verdict.flagged is on_candidate, event
                arms.setdefault(event.session_id, set()).add(on_candidate)
            assert all(len(seen) == 1 for seen in arms.values())
            assert {True, False} <= set().union(*arms.values())
        finally:
            manager.close()
            runtime.shutdown()

    def test_a_stage_change_re_bases_a_session_instead_of_flipping_it(
        self, tmp_path, trained, relabelled_model, small_dataset
    ):
        """A stage advance moves some in-flight sessions to the candidate
        and a rollback moves them back.  The candidate gives the same
        verdicts under other cluster ids, as a retrain may: a moved
        session's cluster is re-based on each move, never flipped."""
        registry = ModelRegistry(tmp_path / "registry")
        registry.promote(trained, date(2023, 7, 1), "bootstrap")
        registry.stage_candidate(
            registry.load(1).install(relabelled_model), date(2023, 8, 1),
            "relabelled",
        )
        runtime = _runtime(registry)
        manager = _manager(registry, runtime, tmp_path, min_comparisons=10**9)
        sessions = SessionScoringService(runtime, ttl_seconds=1e9)
        payloads = list(iter_payloads(small_dataset, 80))

        def observe(seq):
            return sessions.observe_many([
                SessionEvent(
                    f"stage-{number}", EventType.FOCUS if seq else EventType.PAGE_LOAD,
                    seq, 1000.0 + seq, payload.user_agent, payload.values,
                ).to_wire()
                for number, payload in enumerate(payloads)
            ])

        try:
            manager.start(2, salt=SALT)
            observed = observe(0)
            assert manager.advance(force=True).status == CANARY
            observed += observe(1)
            moved = [
                f"stage-{number}" for number in range(len(payloads))
                if manager.route(f"stage-{number}")[0]
            ]
            manager.rollback()
            observed += observe(2)
        finally:
            manager.close()
            runtime.shutdown()
        assert all(o.verdict.accepted for o in observed)
        assert [o.revision for o in observed] == [None] * len(observed)
        assert 0 < len(moved) < len(payloads)
        k = trained.config.n_clusters
        for session_id in moved:
            before, on_candidate, back = (
                record["predicted_cluster"]
                for record in sessions.session_snapshot(session_id)["events"]
            )
            assert on_candidate == (before + 1) % k and back == before


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

            def invalidations():
                runtime.cache.sync_stats()
                return runtime.runtime_stats.counter("cache_invalidations")

            invalidations_before = invalidations()
            for stage, prefix in enumerate(("canary0", "canary1")):
                state = manager.advance()
                assert state.status == CANARY and state.stage_index == stage
                # Exactly one cache invalidation per stage transition.
                assert invalidations() == invalidations_before + stage + 1
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
            assert invalidations() == invalidations_before + 3
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

    def test_rollbacks_leave_no_shadow_thread_behind(self, registry, tmp_path):
        """Each rollback stops its shadow scorer from inside ``_detach``
        (which must not join); the stopped thread still exits on its
        own, so K begin → rollback cycles leave none alive."""
        before = set(_shadow_threads())
        runtime = _runtime(registry)
        manager = _manager(registry, runtime, tmp_path)
        try:
            for _ in range(3):
                manager.begin(registry.load(2), 2, salt=SALT)
                assert manager.rollback().status == ROLLED_BACK
            started = [t for t in _shadow_threads() if t not in before]
            for thread in started:
                thread.join(timeout=5.0)
            assert not [t for t in started if t.is_alive()]
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
    def test_collect(self, registry, small_dataset, tmp_path):
        runtime = _runtime(registry)
        manager = _manager(registry, runtime, tmp_path)
        try:
            manager.start(2, salt=SALT)
            for wire in _stage_wires(small_dataset, "m", 60):
                runtime.score_wire(wire)
            manager.drain_shadow()
            reported = collected(runtime)
            # The generation gauge is fleet-wide: no runtime prefix.
            assert "polygraph_model_generation" in reported
            assert "polygraph_runtime_polygraph_model_generation" not in reported
            assert reported["polygraph_rollout_in_flight"] == 1
            assert reported["polygraph_rollout_stage"] == -1
            assert "polygraph_rollout_disagreement_rate" in reported
            assert "polygraph_rollout_stage_age_seconds" in reported
            assert "polygraph_rollout_comparisons_total" in reported
        finally:
            manager.close()
            runtime.shutdown()

    def test_rollout_endpoint(self, registry, tmp_path):
        runtime = _runtime(registry)
        manager = _manager(registry, runtime, tmp_path)

        try:
            app = CollectionApp(runtime)
            status, _, body = app.handle("GET", "/rollout")
            assert status.startswith("404")

            manager.start(2, salt=SALT)
            status, _, body = app.handle("GET", "/rollout")
            assert status.startswith("200")
            body = json.loads(body)
            assert body["status"] == SHADOW
            assert body["candidate_version"] == 2
            assert body["baseline_version"] == 1
            assert body["comparisons"] == 0
        finally:
            manager.close()
            runtime.shutdown()
