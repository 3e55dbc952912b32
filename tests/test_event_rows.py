"""An event is parsed once and scored once.

:class:`~repro.sessions.envelope.EnvelopeParser` hands the batch core a
*row* — the fields a proven fingerprint tail parses to — beside each
inner wire, and the core hands back the detection result behind each
verdict, which is where the fold reads an event's cluster.  The row
path must be indistinguishable from scoring the spliced wires: the same
responses byte for byte, the same inner-service counters, the same
session state.  And a never-seen event fingerprint must cost the one
batched model call that scores it, no second lookup.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings

from repro.cluster import ClusterConfig, ClusterRouter, ShardSupervisor
from repro.core.detection import FraudDetector
from repro.coverage.tracker import CoverageTracker
from repro.runtime.service import RuntimeScoringService
from repro.service.aingest import AsyncIngestServer
from repro.service.api import CollectionApp
from repro.service.scoring import ScoringService
from repro.sessions import SessionScoringService
from repro.sessions.envelope import EnvelopeParser
from repro.traffic.events import EventStreamConfig, build_event_streams

from tests.oracle import (
    HOSTILE_SHAPES,
    ROW_SHAPES,
    NothingSticks,
    build_traffic,
    cut_batches,
    first_difference,
    scenario_streams,
    sessions_state,
    traffic,
    validator_state,
)
from tests.parent_render import parent_render_event

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


SHAPES = {**HOSTILE_SHAPES, **ROW_SHAPES}


class _Counting(EnvelopeParser):
    """An envelope parser that counts the events it answers with rows."""

    def __init__(self, taken: dict) -> None:
        super().__init__()
        self.taken = taken

    def parse_row(self, wire):
        parsed = super().parse_row(wire)
        self.taken["events"] += 1
        self.taken["rows"] += len(parsed[2]) > 1
        return parsed


def _coverage(service):
    return service.coverage.status_dict()


def _per_request_state(service):
    return (
        validator_state(service.validator),
        service.scored_count,
        service.flagged_count,
        dict(service.unknown_ua_counts),
        _coverage(service),
    )


def _runtime_state(runtime):
    runtime.cache.sync_stats()
    stats = runtime.runtime_stats
    return (
        validator_state(runtime.validator),
        runtime.requests_total,
        runtime.rejected_count,
        runtime.scored_count,
        runtime.flagged_count,
        dict(runtime.unknown_ua_counts),
        stats.counter("cache_hits"),
        stats.counter("cache_misses"),
        _coverage(runtime),
    )


def _cluster_state(router):
    shards = []
    for _, shard in sorted(router.supervisor.shards.items()):
        stats = shard.transport_stats()
        shards.append(
            (
                validator_state(shard.service.validator),
                shard.service.requests_total,
                shard.service.rejected_count,
                stats["cache_hits"],
                stats["cache_misses"],
                stats["scored"],
                stats["flagged"],
            )
        )
    return (
        shards,
        router.requests_total,
        router.scored_count,
        router.flagged_count,
        dict(router.reject_counts),
        _coverage(router),
    )


def _process_cluster(trained):
    supervisor = ShardSupervisor(
        trained, config=ClusterConfig(n_shards=2, backend="process", transport="shm")
    )
    return ClusterRouter(supervisor).start()


@pytest.fixture(scope="module")
def streams(small_dataset, trained):
    table = trained.cluster_model.ua_to_cluster

    def donor_ok(victim_key, donor_key):
        victim, donor = table.get(victim_key), table.get(donor_key)
        return victim is not None and donor is not None and victim != donor

    return build_event_streams(
        small_dataset, EventStreamConfig(seed=11), donor_ok=donor_ok
    )


@pytest.fixture(scope="module", params=["per_request", "runtime", "process_cluster"])
def twins(request, trained):
    """Two identical inner services, fed identical wires for the whole
    module — one under the row path, one scoring the spliced wires —
    and the function that reads everything one of them remembers."""
    if request.param == "per_request":
        pair = [ScoringService(trained), ScoringService(trained)]
        state, stop = _per_request_state, lambda service: None
    elif request.param == "runtime":
        pair = [RuntimeScoringService(trained).start() for _ in range(2)]
        state, stop = _runtime_state, lambda runtime: runtime.shutdown()
    else:
        pair = [_process_cluster(trained) for _ in range(2)]
        state, stop = _cluster_state, lambda router: router.shutdown()
    try:
        for service in pair:
            service.attach_coverage(CoverageTracker())
        yield pair, state
    finally:
        for service in pair:
            stop(service)


class TestTheRowPathIsTheBytesPath:
    def test_responses_counters_and_sessions_match(self, twins, streams):
        (by_rows, by_bytes), state = twins
        candidates = scenario_streams(streams, per_scenario=2)
        example = itertools.count()
        taken = {"rows": 0, "events": 0}

        @settings(max_examples=100, deadline=None)
        @given(drawn=traffic(len(candidates), SHAPES))
        def check(drawn):
            wires = build_traffic(
                candidates, nonce=f"r{next(example)}", shapes=SHAPES, **drawn
            )
            bounds = dict(
                ttl_seconds=drawn["ttl_seconds"], max_sessions=drawn["max_sessions"]
            )
            rows_side = SessionScoringService(by_rows, **bounds)
            bytes_side = SessionScoringService(by_bytes, **bounds)
            # Without a memo every event goes by its spliced wire.
            bytes_side._envelopes._memo = NothingSticks()
            rows_side._envelopes = _Counting(taken)
            front = AsyncIngestServer(CollectionApp(by_rows, sessions=rows_side))
            got, expected = [], []
            for batch in cut_batches(wires, drawn["cuts"]):
                got += front._observe_batch(batch)
                expected += [
                    parent_render_event(o) for o in bytes_side.observe_many(batch)
                ]
            assert got == expected, first_difference(got, expected)
            assert sessions_state(rows_side) == sessions_state(bytes_side)
            assert state(by_rows) == state(by_bytes)

        check()
        # The property held with the row path actually taken.
        assert taken["rows"] > taken["events"] // 4, taken

    def test_every_edge_shape_meets_the_row_path(self, twins, streams):
        """Each edge shape, twice per session so its tail is memoized:
        the proven ones are answered from rows, the rest from wires,
        and both sides still agree."""
        (by_rows, by_bytes), state = twins
        stream = next(s for s in streams if len(s.events) >= 3)
        rows_taken = {}
        for name, shape in sorted(SHAPES.items()):
            rows_side = SessionScoringService(by_rows, ttl_seconds=1e9)
            bytes_side = SessionScoringService(by_bytes, ttl_seconds=1e9)
            bytes_side._envelopes._memo = NothingSticks()
            wires = [
                shape(event.__class__(
                    f"edge-{name}-{turn}", event.event_type, event.seq,
                    event.timestamp, event.user_agent, event.values,
                    event.suspicious_globals,
                ))
                for turn in range(2)
                for event in stream.events
            ]
            parsed = []
            for wire in wires:
                try:
                    parsed.append(rows_side._envelopes.parse_row(wire)[2])
                except ValueError:
                    pass
            rows_taken[name] = sum(len(row) > 1 for row in parsed)
            rows_side._envelopes._memo.clear()
            app = CollectionApp(by_rows, sessions=rows_side)
            got = AsyncIngestServer(app)._observe_batch(wires)
            expected = [parent_render_event(o) for o in bytes_side.observe_many(wires)]
            assert got == expected, (name, first_difference(got, expected))
            assert sessions_state(rows_side) == sessions_state(bytes_side), name
            assert state(by_rows) == state(by_bytes), name
        for name in ("sid_at_cap", "sid_near_cap", "unknown_ua", "value_at_range"):
            assert rows_taken[name] > 0, name
        for name in (
            "sid_over_cap", "empty_sid", "value_over_range", "value_negative",
            "value_respelled", "too_many_globals", "oversized", "bad_ua",
            "wrong_arity",
        ):
            assert rows_taken[name] == 0, name


class TestEveryEventIsCheckedForItsOwnId:
    @pytest.mark.parametrize("shape", ["empty_sid", "sid_over_cap"])
    @pytest.mark.parametrize("inner", [ScoringService, RuntimeScoringService])
    def test_a_follow_up_is_refused_as_its_first_event_is(
        self, trained, streams, shape, inner
    ):
        """An id the wire contract refuses is refused at every seq: a
        follow-up may not score under ``@1`` or ``ev-<digest>`` and open
        a session its first event could not."""
        stream = next(s for s in streams if len(s.events) >= 3)
        wires = [ROW_SHAPES[shape](event) for event in stream.events]
        for memo in (True, False):  # the row path (warm tail), the bytes path
            sessions = SessionScoringService(inner(trained), ttl_seconds=1e9)
            if not memo:
                sessions._envelopes._memo = NothingSticks()
            observed = sessions.observe_many(wires) + sessions.observe_many(wires)
            observed += [sessions.observe_wire(wire) for wire in wires]
            assert [o.verdict.reject_reason for o in observed] == (
                ["bad_session_id"] * len(observed)
            ), (shape, memo)
            assert not any(o.session_created for o in observed)
            assert sessions.status_dict()["active_sessions"] == 0
            assert sessions.events_total == 0


class TestOneModelCallPerNeverSeenFingerprint:
    def test_a_batch_of_new_fingerprints_is_one_batched_call(
        self, trained, streams, monkeypatch
    ):
        by_surface = {(s.first.values, s.first.user_agent): s for s in streams}
        fresh = [s for s in by_surface.values() if len(s.events) >= 2][:24]
        assert len(fresh) == 24
        expected = {
            s.session_id: [
                trained.detect_session(e.values, e.user_agent).predicted_cluster
                for e in s.events[:2]
            ]
            for s in fresh
        }
        runtime = RuntimeScoringService(trained).start()
        sessions = SessionScoringService(runtime, ttl_seconds=1e9)
        calls = {"vectors": [], "vector": 0}
        evaluate_vectors = FraudDetector.evaluate_vectors
        evaluate_vector = FraudDetector.evaluate_vector

        def spy_vectors(self, matrix, user_agents):
            calls["vectors"].append(len(user_agents))
            return evaluate_vectors(self, matrix, user_agents)

        def spy_vector(self, vector, user_agent):
            calls["vector"] += 1
            return evaluate_vector(self, vector, user_agent)

        monkeypatch.setattr(FraudDetector, "evaluate_vectors", spy_vectors)
        monkeypatch.setattr(FraudDetector, "evaluate_vector", spy_vector)
        # First and second events of every session, never seen before.
        wires = [s.events[0].to_wire() for s in fresh]
        wires += [s.events[1].to_wire() for s in fresh]
        try:
            observed = sessions.observe_many(wires)
        finally:
            runtime.shutdown()
        assert all(o.verdict.accepted for o in observed)
        assert calls == {"vectors": [len(wires)], "vector": 0}
        for stream in fresh:
            records = sessions.session_snapshot(stream.session_id)["events"]
            assert [r["predicted_cluster"] for r in records] == (
                expected[stream.session_id]
            )
