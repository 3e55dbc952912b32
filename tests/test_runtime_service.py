"""RuntimeScoringService: parity, concurrency, retraining, lifecycle."""

import copy
import dataclasses
import json
import sys
import threading
from datetime import date

import pytest

from repro.browsers.profiles import BrowserProfile
from repro.browsers.useragent import Vendor
from repro.cluster import ClusterConfig, ClusterRouter, ShardSupervisor
from repro.core.config import PipelineConfig
from repro.core.pipeline import BrowserPolygraph
from repro.core.retraining import ModelRegistry
from repro.coverage import CoverageTracker
from repro.fingerprint.script import MAX_PAYLOAD_BYTES, CollectionScript
from repro.rollout import RolloutConfig, RolloutManager
from repro.runtime.service import RuntimeConfig, RuntimeScoringService
from repro.service.aingest import _MAX_BODY as API_MAX_BODY
from repro.service.api import CollectionApp
from repro.service.ingest import RejectReason
from repro.service.scoring import ScoringService
from repro.traffic.replay import iter_payloads
from tests.exposition_check import collected
from tests.oracle import (
    COLLECT_KINDS,
    POISON_BODIES,
    check,
    collect_wires,
    cut_batches,
    hostile_collects,
)


def _wires(dataset, limit):
    return [p.to_wire() for p in iter_payloads(dataset, limit)]


def _wire(session_id="rt-1", vendor=Vendor.CHROME, version=112):
    profile = BrowserProfile(vendor, version)
    return CollectionScript().run(
        profile.environment(), profile.user_agent(), session_id
    ).to_wire()


def _fields(verdict):
    return (
        verdict.session_id,
        verdict.accepted,
        verdict.flagged,
        verdict.risk_factor,
        verdict.reject_reason,
    )


def _essence(verdict):
    """Everything about a verdict but the clock."""
    return _fields(verdict) + (
        verdict.inferred_release,
        verdict.inferred_distance,
    )


def _dumps(document):
    return json.dumps(document, separators=(",", ":")).encode()


assert all(len(body) <= MAX_PAYLOAD_BYTES for body in POISON_BODIES.values())

_MALFORMED = ("", False, False, None, "malformed", None, None)


@pytest.fixture()
def runtime(trained):
    service = RuntimeScoringService(trained).start()
    yield service
    service.shutdown()


@pytest.fixture(scope="module")
def models(small_dataset):
    """``(config, model, other)``: two fitted models that disagree.

    Namespace probe and nearest-release inference are both on, so
    escalation and the ``inferred_*`` fields are live.  ``other`` is
    ``model`` with its cluster table rotated — installing it is a
    retrain that changes almost every verdict.
    """
    config = PipelineConfig(
        enable_namespace_probe=True, unknown_ua_policy="infer"
    )
    model = BrowserPolygraph(config).fit(small_dataset).cluster_model
    other = copy.deepcopy(model)
    k = other.config.n_clusters
    other.ua_to_cluster = {
        ua: (cluster + 1) % k for ua, cluster in other.ua_to_cluster.items()
    }
    other._rebuild_table()
    return config, model, other


def _pipeline(config, model):
    """A private pipeline over a shared (read-only) fitted model."""
    return BrowserPolygraph(config).install(model)


class TestRuntimeConfig:
    def test_defaults_valid(self):
        config = RuntimeConfig()
        assert config.cache_entries > 0
        assert config.cache_ttl_seconds > 0
        assert len(dataclasses.fields(config)) == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            # No queue, pool or batcher: their knobs are not fields.
            {"n_workers": 0},
            {"queue_capacity": 0},
            {"cache_entries": -1},
            {"latency_sample_every": 0},
            # Cache keys are exact: no coarser quantization.
            {"quantization_step": 4},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises((ValueError, TypeError)):
            RuntimeConfig(**kwargs)


@pytest.fixture(scope="module")
def default_world(oracle_world, trained, small_dataset):
    """The oracle's world on ``trained``'s own model (the default
    config) and 1,200 simulator rows."""
    return dataclasses.replace(
        oracle_world,
        model=trained.cluster_model,
        rows=[(p.user_agent, p.values) for p in iter_payloads(small_dataset, 1200)],
    )


class TestVerdictParity:
    """Batching and caching are pure optimizations: same verdicts."""

    def test_replay_matches_baseline(self, default_world):
        """1,200 distinct simulator sessions on the default config."""
        stacks = check(default_world, collects=[("row", n) for n in range(1200)], cuts=[256])
        assert stacks["reference"].service.scored_count == 1200

    def test_reject_parity_on_hostile_wires(self, oracle_world):
        """Every hostile spelling, oversized and garbage wire, and a
        session id sent twice, through every path one at a time."""
        hostile = len(hostile_collects("s", "u", [0]))
        picks = [("hostile", n) for n in range(hostile)]
        picks += [(kind, 3) for kind in ("oversized", "bad_json", "garbage_ua", "same_sid")]
        check(oracle_world, collects=picks, cuts=[1])

    def test_wire_memo_fast_path_matches(self, default_world):
        """The second sight of a fingerprint takes the parsed-wire memo
        and the verdict cache."""
        stacks = check(default_world, collects=[("row", 0), ("row", 0), ("row", 1200)], cuts=[1])
        for name in ("batch", "socket"):
            assert stacks[name].service.cache_hit_rate > 0.0, name


@pytest.fixture(scope="module")
def rows(small_dataset):
    """``(user_agent, values)`` of 48 simulator sessions."""
    return [(p.user_agent, p.values) for p in iter_payloads(small_dataset, 48)]


class TestBatchDifferential:
    """Any cut of any wire sequence: the per-request service's answers."""

    def test_any_cut_matches_the_per_request_twin(self, oracle_world):
        """Every kind of wire, a retrain between two batches, a serve log
        and a coverage tracker attached, a dated batch: at each cut and
        cache size (the drawn ones are ``tests/test_oracle.py``'s)."""
        picks = [(kind, 5 * i) for i, kind in enumerate(COLLECT_KINDS * 6)]
        for cuts, cache_entries, day in (
            ([1], 0, None), ([37, 1, 120], 4, date(2023, 7, 4)), ([300], 8192, None)
        ):
            check(
                oracle_world, collects=picks, cuts=cuts, cache_entries=cache_entries,
                install_at=3, logged=True, day=day,
            )

    def test_canary_split_with_an_identical_candidate(self, oracle_world):
        """Routing, arm-tagged keys and mirroring all run, and — the
        candidate being the live model — change no verdict."""
        picks = [(kind, 5 * i) for i, kind in enumerate(COLLECT_KINDS * 6)]
        for cache_entries in (0, 4, 8192):
            check(
                oracle_world, collects=picks, cuts=[37, 1, 120],
                cache_entries=cache_entries, canary=True,
            )

    def test_candidate_row_of_an_ended_rollout_is_served_live_uncached(
        self, models, rows, registry, tmp_path
    ):
        """The rollout ends between routing a batch and scoring it."""
        config, model, _ = models
        wires = collect_wires(rows, [("row", n) for n in range(200)])
        runtime = RuntimeScoringService(_pipeline(config, model))
        twin = ScoringService(_pipeline(config, model))
        manager = RolloutManager(
            registry,
            runtime=runtime,
            config=RolloutConfig(stages=(0.25, 1.0)),
            state_path=tmp_path / "rollout.json",
        )
        manager.begin(_pipeline(config, model), 2, baseline_version=1, salt="s")
        manager.advance(force=True)
        manager.candidate_detector = lambda: None  # what an ended rollout returns
        try:
            actual = runtime.score_many(wires)
            candidates = sum(manager.route(f"c{n}")[0] for n in range(200))
        finally:
            manager.close()
            runtime.shutdown()
        assert 0 < candidates < 200
        assert [_essence(v) for v in actual] == [
            _essence(twin.score_wire(w)) for w in wires
        ]
        assert manager.controller.stage_verdicts == 0
        assert not any(key[0] == "__candidate__" for key in runtime.cache._entries)
        assert len(runtime.cache) > 0  # the live-routed rows were cached


@pytest.fixture(scope="module")
def registry(tmp_path_factory, trained):
    """A registry with a live v1 for the rollout manager to hang off."""
    registry = ModelRegistry(tmp_path_factory.mktemp("registry"))
    registry.promote(trained, date(2023, 7, 1), "bootstrap")
    return registry


class TestPoisonBody:
    """A body that breaks the parser in an unusual way is one malformed
    wire — alone or amid 255 neighbours, on every in-process path."""

    @pytest.fixture(scope="class")
    def neighbours(self, small_dataset):
        return _wires(small_dataset, 255)

    @staticmethod
    def _check(score_many, quarantine, neighbours, poison):
        (alone,) = score_many([poison])
        assert _essence(alone) == _MALFORMED
        verdicts = score_many(neighbours[:128] + [poison] + neighbours[128:])
        assert len(verdicts) == 256
        assert _essence(verdicts[128]) == _MALFORMED
        assert quarantine.counts() == {RejectReason.MALFORMED: 2}
        return verdicts[:128] + verdicts[129:]

    @pytest.mark.parametrize(
        "poison", POISON_BODIES.values(), ids=POISON_BODIES.keys()
    )
    def test_every_path_answers_malformed(self, trained, neighbours, poison):
        reference = ScoringService(trained)
        expected = [_fields(reference.score_wire(w)) for w in neighbours]

        per_request = ScoringService(trained)
        served = self._check(
            lambda wires: [per_request.score_wire(w) for w in wires],
            per_request.validator.quarantine,
            neighbours,
            poison,
        )
        assert [_fields(v) for v in served] == expected

        runtime = RuntimeScoringService(trained)
        try:
            served = self._check(
                runtime.score_many,
                runtime.validator.quarantine,
                neighbours,
                poison,
            )
        finally:
            runtime.shutdown()
        assert [_fields(v) for v in served] == expected

        supervisor = ShardSupervisor(
            trained,
            config=ClusterConfig(n_shards=1, backend="process", transport="shm"),
        )
        router = ClusterRouter(supervisor).start()
        try:
            shard = supervisor.shards["s0"]
            served = self._check(
                shard.score_chunk,
                shard.service.validator.quarantine,
                neighbours,
                poison,
            )
        finally:
            router.shutdown()
        assert [_fields(v) for v in served] == expected


class TestConcurrentProducers:
    def test_many_threads_share_the_batcher(self, trained, small_dataset):
        """Eight producers on the per-request surface: every batch of
        one goes through the same ingest, cache and counters."""
        wires = _wires(small_dataset, 800)
        baseline = ScoringService(trained)
        expected = sorted(_fields(baseline.score_wire(w)) for w in wires)

        service = RuntimeScoringService(trained).start()
        results = []
        results_lock = threading.Lock()

        def producer(chunk):
            verdicts = [service.score_wire(w) for w in chunk]
            with results_lock:
                results.extend(verdicts)

        try:
            n = 8
            threads = [
                threading.Thread(target=producer, args=(wires[i::n],))
                for i in range(n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            service.shutdown()
        assert sorted(_fields(v) for v in results) == expected
        assert service.scored_count == len(wires)
        assert service.requests_total == len(wires)

    def test_six_threads_of_batches_lose_no_update(self, models, rows):
        """``score_many`` entered from six threads at once, the
        interpreter switching every 10 µs: a lost counter update, a torn
        dedup window or a verdict filed under the wrong index would
        break the sums below."""
        config, model, _ = models
        # Kinds whose answers do not depend on which thread is first
        # (a duplicate session id would).
        kinds = (
            "row", "unknown", "forged", "derivative", "garbage_ua", "globals",
            "bad_json", "range", "oversized", "replay", "poison",
        )
        picks = [
            (kinds[(7 * i) % len(kinds)], (5 * i) % 48) for i in range(1800)
        ]
        wires = collect_wires(rows, picks)
        twin = ScoringService(_pipeline(config, model))
        their_coverage = CoverageTracker()
        twin.attach_coverage(their_coverage)
        expected = sorted(_essence(twin.score_wire(w)) for w in wires)

        runtime = RuntimeScoringService(
            _pipeline(config, model), config=RuntimeConfig(cache_entries=64)
        )
        our_coverage = CoverageTracker()
        runtime.attach_coverage(our_coverage)
        n_threads = 6
        share = len(wires) // n_threads
        results = [None] * n_threads
        gate = threading.Barrier(n_threads)

        def producer(index):
            mine = wires[index * share : (index + 1) * share]
            gate.wait(timeout=30.0)
            verdicts = []
            for batch in cut_batches(mine, [37, 1, 120]):
                verdicts += runtime.score_many(batch)
            results[index] = verdicts

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=producer, args=(i,), daemon=True)
                for i in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
            runtime.shutdown()
        assert all(
            len(verdicts) == share and None not in verdicts for verdicts in results
        )
        union = sorted(_essence(v) for verdicts in results for v in verdicts)
        assert union == expected
        assert runtime.scored_count == twin.scored_count
        assert runtime.flagged_count == twin.flagged_count
        assert runtime.unknown_ua_counts == twin.unknown_ua_counts
        assert runtime.requests_total == len(wires)
        assert runtime.rejected_count == twin.validator.quarantine.total_rejects
        assert (
            runtime.validator.quarantine.counts()
            == twin.validator.quarantine.counts()
        )
        assert runtime.cache.hits + runtime.cache.misses == runtime.scored_count
        ours, theirs = our_coverage.status_dict(), their_coverage.status_dict()
        for vendor, counts in theirs["vendors"].items():
            assert ours["vendors"][vendor]["observed"] == counts["observed"]
            assert ours["vendors"][vendor]["unknown"] == counts["unknown"]


class TestRetraining:
    @pytest.fixture()
    def own_pipeline(self, small_dataset):
        """A privately-fitted pipeline tests may retrain freely."""
        return BrowserPolygraph().fit(small_dataset)

    def test_retrain_invalidates_cache(self, own_pipeline, small_dataset):
        service = RuntimeScoringService(own_pipeline).start()
        try:
            for wire in _wires(small_dataset, 50):
                service.score_wire(wire)
            assert len(service.cache) > 0
            generation = own_pipeline.model_generation
            service.retrain(small_dataset)
            assert own_pipeline.model_generation == generation + 1
            assert len(service.cache) == 0
            assert service.cache.model_generation == generation + 1
            assert service.runtime_stats.counter("model_swaps") == 1
        finally:
            service.shutdown()

    @staticmethod
    def _retrain_inside_the_model_call(pipeline, other):
        """Patch the live detector so a retrain lands mid-``evaluate_vectors``.

        Returns the list the patch appends each call's row count to.
        The swap installs a fresh detector, so only batches that took
        their snapshot before it ever see the patch.
        """
        _, detector = pipeline.detection_snapshot()
        original = detector.evaluate_vectors
        calls = []

        def evaluate_vectors(matrix, user_agents):
            calls.append(len(user_agents))
            if len(calls) == 1:
                pipeline.install(other)
            return original(matrix, user_agents)

        detector.evaluate_vectors = evaluate_vectors
        return calls

    def test_stale_batch_cannot_poison_cache(self, models, small_dataset):
        """Regression: a batch scored against a pre-retrain snapshot must
        never write into the post-retrain cache (the half-batch hazard)."""
        config, model, other = models
        pipeline = _pipeline(config, model)
        service = RuntimeScoringService(pipeline)
        calls = self._retrain_inside_the_model_call(pipeline, other)
        wires = _wires(small_dataset, 80)
        try:
            stale = service.score_many(wires)
            assert calls == [80]
            # Scored on the snapshot the batch took: the old model's answers.
            old = ScoringService(_pipeline(config, model))
            assert [_essence(v) for v in stale] == [
                _essence(old.score_wire(w)) for w in wires
            ]
            # ... none of which the cache accepted.
            service.cache.sync_stats()
            assert service.runtime_stats.counter("cache_stale_drops") == 80
            assert len(service.cache) == 0
            assert service.cache.model_generation == pipeline.model_generation
            # The same fingerprints again: the new model's answers, cached.
            again = [w.replace(b'{"sid":"', b'{"sid":"again-') for w in wires]
            new = ScoringService(_pipeline(config, other))
            assert [_essence(v) for v in service.score_many(again)] == [
                _essence(new.score_wire(w)) for w in again
            ]
            assert len(service.cache) > 0
        finally:
            service.shutdown()

    def test_whole_batch_scored_on_one_snapshot(self, models, small_dataset):
        """A retrain landing mid-batch must not split it across models."""
        config, model, other = models
        pipeline = _pipeline(config, model)
        service = RuntimeScoringService(
            pipeline, config=RuntimeConfig(cache_entries=0)
        )
        calls = self._retrain_inside_the_model_call(pipeline, other)
        wires = _wires(small_dataset, 120)
        try:
            first = service.score_many(wires[:40])
            second = service.score_many(wires[40:])
        finally:
            service.shutdown()
        # One model call per batch, each over the whole batch; the swap
        # happened inside the first.
        assert calls == [40]
        assert service.runtime_stats.counter("batches_total") == 2
        assert service.runtime_stats.counter("batched_requests_total") == 120

        def answers(cluster_model, batch):
            reference = ScoringService(_pipeline(config, cluster_model))
            return [_essence(reference.score_wire(w)) for w in batch]

        assert [_essence(v) for v in first] == answers(model, wires[:40])
        assert [_essence(v) for v in second] == answers(other, wires[40:])
        assert answers(model, wires[:40]) != answers(other, wires[:40])

    def test_scoring_service_retrain_delegates(self, own_pipeline, small_dataset):
        service = ScoringService(own_pipeline)
        generation = own_pipeline.model_generation
        service.retrain(small_dataset)
        assert own_pipeline.model_generation == generation + 1


class TestNamespaceProbeEscalation:
    @pytest.fixture(scope="class")
    def probing(self, small_dataset):
        config = PipelineConfig(enable_namespace_probe=True)
        return BrowserPolygraph(config=config).fit(small_dataset)

    def test_cache_hit_still_escalates(self, probing):
        service = RuntimeScoringService(probing).start()
        try:
            plain = _wire("esc-1")
            body = json.loads(plain.decode())
            body["sid"] = "esc-2"
            body["g"] = ["antBrowserInjected"]
            probed = json.dumps(body, separators=(",", ":")).encode()
            first = service.score_wire(plain)
            second = service.score_wire(probed)
        finally:
            service.shutdown()
        assert first.accepted and not first.flagged
        # Same fingerprint, served from the cache — but the namespace
        # probe escalation is applied per-request, after the cache.
        assert second.accepted and second.flagged
        assert second.risk_factor == probing.config.vendor_mismatch_risk


class TestLifecycle:
    def test_requires_fitted_pipeline(self):
        with pytest.raises(ValueError):
            RuntimeScoringService(BrowserPolygraph())

    def test_starts_no_thread(self, trained):
        before = threading.active_count()
        service = RuntimeScoringService(trained).start()
        try:
            assert service.score_wire(_wire("thread-1")).accepted
            assert threading.active_count() == before
        finally:
            service.shutdown()

    def test_shutdown_drains_all_pending(self, trained, small_dataset):
        """Nothing is ever pending: a handle is decided when it is
        returned, and both ``drain`` values are accepted."""
        wires = _wires(small_dataset, 300)
        service = RuntimeScoringService(
            trained, config=RuntimeConfig(cache_entries=0)
        ).start()
        handles = [service.submit_wire(w) for w in wires]
        assert all(h.done() for h in handles)
        service.shutdown(drain=True)
        service.shutdown(drain=False)
        assert all(h.result(timeout=0).accepted for h in handles)

    def test_context_manager(self, models):
        config, model, other = models
        pipeline = _pipeline(config, model)
        with RuntimeScoringService(pipeline) as service:
            verdict = service.score_wire(_wire("ctx-1"))
            assert verdict.accepted
            pipeline.install(other)
            assert service.runtime_stats.counter("model_swaps") == 1
        # Leaving detaches the service from the pipeline's retrains.
        pipeline.install(model)
        assert service.runtime_stats.counter("model_swaps") == 1

    def test_internal_error_resolves_handle(self, models, small_dataset):
        """A model error answers, it does not raise — and only the rows
        that needed the model: the batch's rejects and hits are served,
        and so is the next batch."""
        config, model, _ = models
        pipeline = _pipeline(config, model)
        service = RuntimeScoringService(pipeline)
        wires = _wires(small_dataset, 30)
        warm = service.score_many(wires[:10])
        repeats = [w.replace(b'{"sid":"', b'{"sid":"hit-') for w in wires[:10]]
        _, detector = pipeline.detection_snapshot()
        original = detector.evaluate_vectors

        def exploding(matrix, user_agents):
            raise RuntimeError("model exploded")

        detector.evaluate_vectors = exploding
        try:
            # A vector no training session has: certainly not cached.
            never_seen = json.loads(wires[10])
            never_seen["f"] = [(v + 1) % 7 for v in never_seen["f"]]
            batch = repeats + [b"not json", _dumps(never_seen)] + wires[11:20]
            verdicts = service.score_many(batch)
            assert [_fields(v)[1:] for v in verdicts[:10]] == [
                _fields(v)[1:] for v in warm
            ]
            assert verdicts[10].reject_reason == "malformed"
            failed = [
                v for v in verdicts if (v.reject_reason or "").startswith("internal")
            ]
            assert verdicts[11] in failed
            assert all(
                v.reject_reason == "internal_error: RuntimeError"
                and not v.accepted and v.session_id
                for v in failed
            )
            hits = [v for v in verdicts if v.accepted]
            assert len(hits) >= 10 and len(hits) + len(failed) + 1 == len(batch)
            # The failed rows are answered, not scored.
            assert service.scored_count == len(warm) + len(hits)
            assert service.runtime_stats.counter("internal_errors") == 1
            never_seen["sid"] = "err-1"
            handle = service.submit_wire(_dumps(never_seen))
            assert handle.done()
            assert handle.result().reject_reason == "internal_error: RuntimeError"
            detector.evaluate_vectors = original
            after = service.score_many(
                [w.replace(b'{"sid":"', b'{"sid":"after-') for w in batch[11:]]
            )
            assert all(v.accepted for v in after)
        finally:
            service.shutdown()


class TestMetricsExposure:
    def test_api_body_cap_is_wire_contract_cap(self):
        # The wire contract's cap plus the /event envelope's allowance.
        assert API_MAX_BODY == MAX_PAYLOAD_BYTES + 128

    def test_metrics_endpoint_includes_runtime(self, trained):
        service = RuntimeScoringService(trained).start()
        app = CollectionApp(service)
        try:
            wire = _wire("metrics-1")
            for sid in ("metrics-1", "metrics-2", "metrics-3"):
                assert service.score_wire(wire.replace(b"metrics-1", sid.encode())).accepted
            status, _, body = app.handle("GET", "/metrics")
        finally:
            service.shutdown()
        assert status == "200 OK"
        text = body.decode()
        assert "polygraph_runtime_requests_total 3" in text
        assert "polygraph_runtime_cache_hit_rate" in text
        # One model call (the first wire); the two repeats were hits.
        assert "polygraph_runtime_batches_total 1" in text
        assert "polygraph_runtime_batched_requests_total 1" in text
        # No queue: the gauge only appears once a rollout's shadow
        # scorer has been handed mirrored rows.
        assert "polygraph_runtime_queue_depth" not in text
        assert "polygraph_sessions_scored 3" in text

    def test_cache_peak_is_the_caches_not_a_scrapes(self, trained, small_dataset):
        """Fill the cache, empty it, then scrape: the peak reads the
        fill, though no scrape saw it."""
        service = RuntimeScoringService(trained)
        try:
            service.score_many(_wires(small_dataset, 300))
            filled = len(service.cache)
            assert filled > 1
            service.cache.invalidate()
            reported = collected(service)
        finally:
            service.shutdown()
        assert reported["polygraph_runtime_cache_entries"] == 0
        assert reported["polygraph_runtime_cache_entries_peak"] == filled

    def test_per_request_service_has_no_runtime_lines(self, trained):
        app = CollectionApp(ScoringService(trained))
        status, _, body = app.handle("GET", "/metrics")
        assert status == "200 OK"
        assert "polygraph_runtime_" not in body.decode()
