"""RuntimeScoringService: parity, concurrency, retraining, lifecycle."""

import copy
import dataclasses
import itertools
import json
import sys
import tempfile
import threading
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.browsers.profiles import BrowserProfile
from repro.browsers.useragent import Vendor, format_user_agent
from repro.cluster import ClusterConfig, ClusterRouter, ShardSupervisor
from repro.core.config import PipelineConfig
from repro.core.pipeline import BrowserPolygraph
from repro.core.retraining import ModelRegistry
from repro.coverage import CoverageConfig, CoverageTracker
from repro.fingerprint.script import MAX_PAYLOAD_BYTES, CollectionScript
from repro.rollout import GuardrailConfig, RolloutConfig, RolloutManager
from repro.runtime.service import RuntimeConfig, RuntimeScoringService
from repro.service.aingest import _MAX_BODY as API_MAX_BODY
from repro.service.api import CollectionApp
from repro.service.ingest import PayloadValidator, RejectReason
from repro.service.scoring import ScoringService
from repro.service.storage import SessionStore
from repro.traffic.replay import iter_payloads
from tests.event_shapes import POISON_BODIES


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


class TestVerdictParity:
    """Batching and caching are pure optimizations: same verdicts."""

    def test_replay_matches_baseline(self, trained, small_dataset, runtime):
        wires = _wires(small_dataset, 1200)
        baseline = ScoringService(trained)
        expected = [_fields(baseline.score_wire(w)) for w in wires]
        actual = [_fields(runtime.score_wire(w)) for w in wires]
        assert actual == expected
        assert runtime.scored_count == baseline.scored_count
        assert runtime.flagged_count == baseline.flagged_count

    def test_reject_parity_on_hostile_wires(self, trained):
        good = json.loads(_wire("p-good").decode())
        ua = good["ua"]

        def dumps(obj):
            # Compact separators so the wires start with {"sid":" and
            # genuinely exercise the runtime's fast-path guards.
            return json.dumps(obj, separators=(",", ":")).encode()

        hostile = [
            b"x" * 2000,                                   # oversized
            b"not json",                                   # malformed
            b'{"sid":"a"',                                 # truncated json
            dumps({"sid": "a", "ua": ua}),                 # missing features
            dumps({"sid": "a", "ua": ua, "f": [1, 2]}),    # wrong arity
            dumps({"sid": "", "ua": ua, "f": good["f"]}),
            dumps({"sid": "x" * 99, "ua": ua, "f": good["f"]}),
            dumps({"sid": "a", "ua": ua, "f": [-5] + good["f"][1:]}),
            dumps({"sid": "a", "ua": ua, "f": good["f"], "g": ["g"] * 40}),
            dumps({"sid": "a", "ua": "Not A Browser", "f": good["f"]}),
            dumps({"sid": "a", "ua": ua, "f": good["f"], "g": None}),
            dumps({"sid": 123, "ua": ua, "f": good["f"]}),
            # key order the fast path cannot slice — must still parse
            dumps({"ua": ua, "f": good["f"], "sid": "reordered"}),
            # escaped quote in the sid — fast path must bail to the parser
            dumps({"sid": 'a"b', "ua": ua, "f": good["f"]}),
            # duplicate "sid" key — json.loads keeps the later one
            b'{"sid":"first","sid":"second","ua":"%s","f":%s}'
            % (ua.encode(), dumps(good["f"])),
            _wire("dup-1"),
            _wire("dup-1"),                                # duplicate session
        ]
        baseline = ScoringService(trained, validator=PayloadValidator())
        service = RuntimeScoringService(trained, validator=PayloadValidator())
        try:
            expected = [_fields(baseline.score_wire(w)) for w in hostile]
            actual = [_fields(service.score_wire(w)) for w in hostile]
        finally:
            service.shutdown()
        assert actual == expected
        assert (
            service.validator.quarantine.counts()
            == baseline.validator.quarantine.counts()
        )

    def test_wire_memo_fast_path_matches(self, trained, runtime):
        baseline = ScoringService(trained)
        first = _wire("memo-1")
        second = _wire("memo-2")  # same fingerprint bytes, new sid
        assert _fields(runtime.score_wire(first)) == _fields(
            baseline.score_wire(first)
        )
        # second request takes the parsed-wire memo + verdict cache path
        assert _fields(runtime.score_wire(second)) == _fields(
            baseline.score_wire(second)
        )
        assert runtime.cache_hit_rate > 0.0


# ----------------------------------------------------------------------
# generated traffic, and the differential against the per-request twin

_KINDS = (
    "row", "row", "row", "row",          # natural simulator traffic
    "unknown", "derivative", "garbage_ua", "globals",
    "bad_json", "range", "oversized", "replay",   # single_mixed's hostile four
    "nested", "overflow",                # the poison bodies
    "same_sid",                          # a sid repeated right away
)
_UNKNOWN_RELEASES = (
    format_user_agent(Vendor.CHROME, 131),
    format_user_agent(Vendor.FIREFOX, 133),
    format_user_agent(Vendor.EDGE, 132),
)
_pick = st.tuples(st.sampled_from(_KINDS), st.integers(0, 47))
# Lengths drawn evenly: left alone, st.lists favours a handful of wires.
_picks = st.integers(1, 400).flatmap(
    lambda n: st.lists(_pick, min_size=n, max_size=n)
)
_cuts = st.lists(st.integers(1, 300), min_size=1, max_size=8)


@pytest.fixture(scope="module")
def rows(small_dataset):
    """``(user_agent, values)`` of 48 simulator sessions."""
    return [(p.user_agent, p.values) for p in iter_payloads(small_dataset, 48)]


def _traffic(rows, picks, kinds=_KINDS):
    """One wire per ``(kind, n)`` pick; sids unique unless the kind says so."""
    wires = []
    for position, (kind, n) in enumerate(picks):
        if kind not in kinds:
            kind = "row"
        user_agent, values = rows[n % len(rows)]
        body = {"sid": f"d{position}", "ua": user_agent, "f": list(values)}
        if kind == "unknown":
            body["ua"] = _UNKNOWN_RELEASES[n % len(_UNKNOWN_RELEASES)]
        elif kind == "derivative":
            # Another OS token and a derivative's suffix: a different
            # string in the same vendor-version equivalence class.
            body["ua"] = user_agent.replace(
                "Windows NT 10.0; Win64; x64", "Macintosh; Intel Mac OS X 10_15_7"
            ) + " OPR/98.0.0.0"
        elif kind == "garbage_ua":
            body["ua"] = "Not A Browser"
        elif kind == "globals":
            body["g"] = ["antBrowserInjected"]
        elif kind == "range":
            body["f"][5] = 10_001
        elif kind == "oversized":
            body["ua"] = user_agent + " " * (MAX_PAYLOAD_BYTES + 64)
        elif kind == "same_sid" and position:
            body["sid"] = f"d{position - 1}"
        wire = _dumps(body)
        if kind == "bad_json":
            wire = wire[: len(wire) // 2]
        elif kind == "nested":
            wire = POISON_BODIES["nested-sid"]
        elif kind == "overflow":
            wire = POISON_BODIES["overflow"]
        elif kind == "replay" and position:
            wire = wires[position - 1 - n % position]
        wires.append(wire)
    return wires


def _batches(wires, cuts):
    """Cut ``wires`` into consecutive batches of the cycling sizes."""
    out, position = [], 0
    for size in itertools.cycle(cuts):
        if position >= len(wires):
            return out
        out.append(wires[position : position + size])
        position += size


def _dedup_window(validator):
    _, ids, seen = validator.dedup_state()
    return list(ids), set(seen)


def _assert_same_state(runtime, twin, n_wires):
    """Every counter the issue names, runtime against per-request twin."""
    assert runtime.scored_count == twin.scored_count
    assert runtime.flagged_count == twin.flagged_count
    assert runtime.unknown_ua_counts == twin.unknown_ua_counts
    assert runtime.requests_total == n_wires
    ours, theirs = runtime.validator, twin.validator
    assert runtime.rejected_count == theirs.quarantine.total_rejects
    assert ours.quarantine.counts() == theirs.quarantine.counts()
    assert ours.accepted_count == theirs.accepted_count
    assert _dedup_window(ours) == _dedup_window(theirs)


class TestBatchDifferential:
    """Any cut of any wire sequence: the per-request service's answers."""

    @settings(max_examples=40, deadline=None)
    @given(
        picks=_picks,
        cuts=_cuts,
        cache_entries=st.sampled_from([0, 4, 8192]),
        attached=st.booleans(),
        swap=st.booleans(),
        day=st.sampled_from([None, date(2023, 7, 4)]),
    )
    def test_any_cut_matches_the_per_request_twin(
        self, models, rows, picks, cuts, cache_entries, attached, swap, day
    ):
        """``attached``: a SessionStore and a CoverageTracker on both
        sides.  ``swap``: a retrain lands between two batches (and, for
        the twin, before the same wire)."""
        config, model, other = models
        wires = _traffic(rows, picks)
        batches = _batches(wires, cuts)
        swap_before = len(batches) // 2 if swap else None
        with tempfile.TemporaryDirectory() as tmp:
            sides = []
            for name in ("runtime", "twin"):
                store = coverage = None
                if attached:
                    store = SessionStore(Path(tmp) / name)
                    coverage = CoverageTracker(
                        config=CoverageConfig(window=16, min_observations=4)
                    )
                sides.append((_pipeline(config, model), store, coverage))
            (ours, our_store, our_coverage), (theirs, their_store, their_coverage) = sides
            runtime = RuntimeScoringService(
                ours,
                store=our_store,
                config=RuntimeConfig(cache_entries=cache_entries),
            )
            twin = ScoringService(theirs, store=their_store)
            if attached:
                runtime.attach_coverage(our_coverage)
                twin.attach_coverage(their_coverage)
            actual, expected = [], []
            for number, batch in enumerate(batches):
                if number == swap_before:
                    ours.install(other)
                    theirs.install(other)
                actual += runtime.score_many(batch, day=day)
                expected += [twin.score_wire(wire, day=day) for wire in batch]
            runtime.shutdown()
            assert [_essence(v) for v in actual] == [_essence(v) for v in expected]
            _assert_same_state(runtime, twin, len(wires))
            if attached:
                assert [p.read_bytes() for p in our_store.segments()] == [
                    p.read_bytes() for p in their_store.segments()
                ]
                assert our_coverage.status_dict() == their_coverage.status_dict()
            if cache_entries:
                assert len(runtime.cache) <= cache_entries
                probes = runtime.cache.hits + runtime.cache.misses
                assert probes == twin.validator.accepted_count

    @settings(max_examples=15, deadline=None)
    @given(
        picks=_picks,
        cuts=_cuts,
        cache_entries=st.sampled_from([0, 4, 8192]),
    )
    def test_canary_split_with_an_identical_candidate(
        self, models, rows, registry, picks, cuts, cache_entries
    ):
        """Routing, arm-tagged keys and mirroring all run, and — the
        candidate being the live model — change no verdict."""
        config, model, _ = models
        wires = _traffic(rows, picks)
        runtime = RuntimeScoringService(
            _pipeline(config, model),
            config=RuntimeConfig(cache_entries=cache_entries),
        )
        twin = ScoringService(_pipeline(config, model))
        with tempfile.TemporaryDirectory() as tmp:
            manager = RolloutManager(
                registry,
                runtime=runtime,
                config=RolloutConfig(
                    stages=(0.25, 1.0), shadow_sample_rate=0.5,
                    min_stage_verdicts=3,
                ),
                guardrails=GuardrailConfig(),
                state_path=Path(tmp) / "rollout.json",
            )
            manager.begin(
                _pipeline(config, model), 2, baseline_version=1, salt="fixed-salt"
            )
            manager.advance(force=True)  # shadow -> 25% canary
            try:
                actual = []
                for batch in _batches(wires, cuts):
                    actual += runtime.score_many(batch)
                expected = [twin.score_wire(wire) for wire in wires]
                assert manager.drain_shadow()
                assert manager.in_flight  # identical candidate: no rollback
                routed = [
                    manager.route(v.session_id) + (v.inferred_release,)
                    for v in expected
                    if v.accepted
                ]
                report = manager.report
                stage_verdicts = manager.controller.stage_verdicts
            finally:
                manager.close()
                runtime.shutdown()
        assert [_essence(v) for v in actual] == [_essence(v) for v in expected]
        _assert_same_state(runtime, twin, len(wires))
        # Every mirror-routed row was mirrored, hit or miss — but for
        # interim inferred *flags*, which the manager keeps out of the
        # comparison (and which a verdict cannot tell from an escalation).
        mirrored = report.comparisons + report.shed
        assert mirrored <= sum(mirror for _, mirror, _ in routed)
        assert mirrored >= sum(
            mirror for _, mirror, inferred in routed if inferred is None
        )
        assert report.mismatches == 0
        candidates = sum(candidate for candidate, _, _ in routed)
        if cache_entries == 0:
            assert stage_verdicts == candidates  # every row reached its arm
        else:
            assert stage_verdicts <= candidates
        if cache_entries == 8192:  # nothing evicted
            tagged = [
                key for key in runtime.cache._entries if key[0] == "__candidate__"
            ]
            assert bool(tagged) == bool(candidates)

    def test_candidate_row_of_an_ended_rollout_is_served_live_uncached(
        self, models, rows, registry, tmp_path
    ):
        """The rollout ends between routing a batch and scoring it."""
        config, model, _ = models
        wires = _traffic(rows, [("row", n) for n in range(200)])
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
            candidates = sum(manager.route(f"d{n}")[0] for n in range(200))
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

        supervisor = ShardSupervisor.from_polygraph(
            trained,
            config=ClusterConfig(
                n_shards=1, backend="process", transport="shm",
                heartbeat_interval_s=5.0,
            ),
        )
        router = ClusterRouter(supervisor).start()
        try:
            transport = supervisor.shards["s0"]._transport
            served = self._check(
                transport.score_wires,
                transport.ingest.validator.quarantine,
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
        kinds = tuple(k for k in _KINDS if k != "same_sid")
        picks = [
            (kinds[(7 * i) % len(kinds)], (5 * i) % 48) for i in range(1800)
        ]
        wires = _traffic(rows, picks, kinds=kinds)
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
            for batch in _batches(mine, [37, 1, 120]):
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
            assert service.cache.stale_drops == 80
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
        # The wire contract's cap plus the /event and /check envelopes' allowance.
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

    def test_per_request_service_has_no_runtime_lines(self, trained):
        app = CollectionApp(ScoringService(trained))
        status, _, body = app.handle("GET", "/metrics")
        assert status == "200 OK"
        assert "polygraph_runtime_" not in body.decode()
