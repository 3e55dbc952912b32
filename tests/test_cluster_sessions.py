"""The session layer behind the cluster router.

Behind ``--shards`` the session state still has one home — one
:class:`SessionScoringService` whose inner service is the router — so
scoring flows through the router and its partitions while
the fold, the tracker and ``GET /sessions`` are the single-process
ones.  Pins parity with the single-process layer, the router's
one-call-per-batch contract, reversed-key envelopes finding their
session, the endpoints through a cluster, and the
``ClusterSessionService`` alias the frozen e2e tracer still imports.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from urllib.request import urlopen

import pytest
from hypothesis import given, settings

from repro.cluster import ClusterConfig, ClusterRouter, ShardSupervisor
from repro.coverage import CoverageTracker
from repro.service.aingest import AsyncIngestServer
from repro.service.api import CollectionApp
from repro.service.scoring import ScoringService
from repro.sessions import SessionScoringService
from repro.traffic.events import (
    EventStreamConfig,
    StreamScenario,
    build_event_streams,
)
from repro.traffic.replay import iter_wire_payloads

from tests.exposition_check import (
    HARNESS_KEYS_CLUSTER,
    missing_harness_keys,
    samples,
    violations,
)
from tests.oracle import (
    HOSTILE_SHAPES,
    build_traffic,
    differential,
    first_difference,
    scenario_streams,
    sessions_state,
    traffic,
    validator_state,
)
from tests.parent_render import parent_metrics


@pytest.fixture(scope="module")
def streams(small_dataset, trained):
    table = trained.cluster_model.ua_to_cluster

    def donor_ok(victim_key, donor_key):
        victim, donor = table.get(victim_key), table.get(donor_key)
        return victim is not None and donor is not None and victim != donor

    return build_event_streams(
        small_dataset, EventStreamConfig(seed=11), donor_ok=donor_ok
    )


def _two_shards(trained):
    supervisor = ShardSupervisor(
        trained, config=ClusterConfig(n_shards=2)
    )
    return ClusterRouter(supervisor).start()


@pytest.fixture()
def cluster(trained):
    router = _two_shards(trained)
    yield router
    router.shutdown()


def _observe_all(service, streams, limit=12):
    observations = []
    for stream in streams[:limit]:
        for event in stream.events:
            observations.append(service.observe_wire(event.to_wire()))
    return observations


def _essence(observation):
    d = observation.to_dict()
    return (
        d["session_id"],
        d["accepted"],
        d["event_flagged"],
        d["event_risk"],
        d["session_flagged"],
        d["session_risk"],
        d["revision"],
        d["event_seq"],
        d["session_created"],
    )


class TestLanePlacementByParsedId:
    """A valid envelope's key order must not decide which session state
    it finds: the fold keys on the parsed id, not on envelope bytes."""

    def test_reversed_key_streams_are_caught_like_canonical_ones(
        self, small_dataset, trained
    ):
        swaps = [
            stream
            for stream in build_event_streams(
                small_dataset,
                EventStreamConfig(seed=5, engine_swap_sessions=40),
            )
            if stream.scenario is StreamScenario.ENGINE_SWAP
        ]
        assert len(swaps) == 40
        router = _two_shards(trained)
        try:
            caught = {}
            for spelling in ("canonical", "reversed_keys"):
                sessions = SessionScoringService(router, ttl_seconds=1e9)
                flagged = set()
                for stream in swaps:
                    for event in stream.events:
                        event = dataclasses.replace(
                            event, session_id=f"{spelling[0]}-{event.session_id}"
                        )
                        wire = (
                            event.to_wire() if spelling == "canonical"
                            else HOSTILE_SHAPES[spelling](event)
                        )
                        observed = sessions.observe_wire(wire)
                        assert observed.verdict.accepted
                        revision = observed.revision
                        if revision is not None and revision.new_flagged:
                            flagged.add(stream.session_id)
                caught[spelling] = flagged
                # Every follow-up found the state its first event opened.
                status = sessions.status_dict()
                assert status["active_sessions"] == len(swaps)
                assert status["events_total"] == sum(len(s.events) for s in swaps)
        finally:
            router.shutdown()
        assert caught["canonical"]
        assert caught["reversed_keys"] == caught["canonical"]


class TestClusterObserveMany:
    @pytest.fixture(scope="class")
    def twin_routers(self, trained):
        twins = _two_shards(trained), _two_shards(trained)
        yield twins
        for router in twins:
            router.shutdown()

    def test_any_split_equals_one_at_a_time(self, twin_routers, streams):
        candidates = scenario_streams(streams)
        example = itertools.count()

        def shard_state(router):
            return [
                validator_state(shard.service.validator)
                for _, shard in sorted(router.supervisor.shards.items())
            ]

        @settings(max_examples=60, deadline=None)
        @given(drawn=traffic(len(candidates)))
        def check(drawn):
            wires = build_traffic(candidates, nonce=f"c{next(example)}", **drawn)
            bounds = dict(
                ttl_seconds=drawn["ttl_seconds"],
                max_sessions=2 * drawn["max_sessions"],
            )
            batched = SessionScoringService(twin_routers[0], **bounds)
            sequential = SessionScoringService(twin_routers[1], **bounds)
            got, expected = differential(batched, sequential, wires, drawn["cuts"])
            assert got == expected, first_difference(got, expected)
            assert sessions_state(batched) == sessions_state(sequential)
            assert shard_state(twin_routers[0]) == shard_state(twin_routers[1])
            assert twin_routers[0].reject_counts == twin_routers[1].reject_counts

        check()

    def test_a_batch_is_one_router_call_in_arrival_order(self, cluster, streams):
        calls = []
        score_rows = cluster.score_rows

        def recording(wires, rows, found, day=None):
            calls.append(list(wires))
            return score_rows(wires, rows, found, day=day)

        cluster.score_rows = recording
        sessions = SessionScoringService(cluster, ttl_seconds=1e9)
        events = [
            event
            for stream in scenario_streams(streams, per_scenario=2)
            for event in stream.events
        ]
        wires = [event.to_wire() for event in events] + [b"not an envelope"]
        observed = sessions.observe_many(wires)
        assert len(calls) == 1
        # Malformed envelopes are answered before the router is asked.
        assert len(calls[0]) == len(events)
        assert [json.loads(w)["sid"].split("@")[0] for w in calls[0]] == [
            event.session_id for event in events
        ]
        assert [o.event_seq for o in observed] == [e.seq for e in events] + [-1]
        routed = cluster.cluster_status()["router"]["routed_by_shard"]
        assert sorted(routed) == sorted(cluster.supervisor.shards)


class TestClusterSessionParity:
    def test_observations_match_the_single_process_layer(
        self, cluster, trained, streams
    ):
        single = SessionScoringService(
            ScoringService(trained), ttl_seconds=1e9
        )
        sharded = SessionScoringService(cluster, ttl_seconds=1e9)
        expected = [_essence(o) for o in _observe_all(single, streams)]
        actual = [_essence(o) for o in _observe_all(sharded, streams)]
        assert actual == expected


class TestSessionsEndpointThroughTheCluster:
    def _call(self, server, path, body=None):
        url = f"http://127.0.0.1:{server.port}{path}"
        with urlopen(url, data=body, timeout=10) as response:
            return response.status, json.loads(response.read())

    def test_event_and_sessions_endpoints(self, cluster, streams, small_dataset):
        """``/event``, ``/session/{id}`` and ``/sessions`` through the
        router; and its ``/metrics``, with coverage on, is a well-formed
        exposition of the parent's samples, holding every key the
        end-to-end benchmark reads of a cluster."""
        cluster.attach_coverage(CoverageTracker())
        app = CollectionApp(
            cluster,
            sessions=SessionScoringService(cluster, ttl_seconds=1e9),
            coverage=cluster.coverage,
        )
        stream = next(s for s in streams if len(s.events) >= 2)
        wires = [w for _, w in zip(range(40), iter_wire_payloads(small_dataset))]
        with AsyncIngestServer(app, host="127.0.0.1", port=0) as server:
            scraped, own = [], server.collect

            def collect(out):
                scraped.append(parent_metrics(app, server))
                own(out)

            server.collect = collect
            for event in stream.events:
                status, document = self._call(server, "/event", event.to_wire())
                assert status == 202, document
                assert document["session_id"] == stream.session_id
            status, document = self._call(server, f"/session/{stream.session_id}")
            assert status == 200
            assert document["event_count"] == len(stream.events)
            assert "shard" not in document
            status, document = self._call(server, "/sessions")
            cluster.score_many(wires + wires[:4] + [b"\x00 not json"])
            with urlopen(f"http://127.0.0.1:{server.port}/metrics", timeout=10) as response:
                text = response.read().decode()
        assert violations(text) == []
        assert samples(text) == scraped[0]
        assert missing_harness_keys(text, HARNESS_KEYS_CLUSTER) == []
        assert status == 200
        assert "partitions" not in document and "shards" not in document
        assert document["events_total"] == len(stream.events)
        assert document["max_sessions"] == 100_000


class TestTheFrozenTracerAlias:
    """``benchmarks/e2e/e2ebench/trace.py`` is frozen and still imports
    ``ClusterSessionService``; built the way it builds it, the alias
    must be the single-process layer over the router."""

    def test_trace_construction_matches_the_single_process_layer(
        self, cluster, trained, streams
    ):
        from repro.cluster.sessions import ClusterSessionService

        assert ClusterSessionService is SessionScoringService
        sessions = ClusterSessionService(cluster, ttl_seconds=600.0)
        single = SessionScoringService(ScoringService(trained), ttl_seconds=600.0)
        every_scenario = scenario_streams(streams)
        actual = [_essence(o) for o in _observe_all(sessions, every_scenario)]
        expected = [_essence(o) for o in _observe_all(single, every_scenario)]
        assert actual == expected
        assert any(revision is not None for *_, revision, _, _ in actual)
        assert sessions.status_dict() == single.status_dict()
