"""Shard-affine session lanes behind the cluster router.

Pins the satellite contract that lifted the old ``--session-ttl
requires single-process mode`` restriction: lane placement follows the
ring, scoring still flows through the router (so verdicts match the
single-process session layer), ``GET /sessions`` aggregates across
lanes, and each lane's durable event log lives in its own
``shard-<id>`` subdirectory.
"""

from __future__ import annotations

import dataclasses
import io
import itertools
import json

import pytest
from hypothesis import given, settings

from repro.cluster import ClusterConfig, ClusterRouter, ShardSupervisor
from repro.cluster.sessions import ClusterSessionService
from repro.service.api import CollectionApp
from repro.service.scoring import ScoringService
from repro.sessions import SessionScoringService
from repro.traffic.events import (
    EventStreamConfig,
    StreamScenario,
    build_event_streams,
)

from tests.event_shapes import (
    HOSTILE_SHAPES,
    build_traffic,
    differential,
    first_difference,
    lane_state,
    scenario_streams,
    traffic,
    validator_state,
)


@pytest.fixture(scope="module")
def streams(small_dataset, trained):
    table = trained.cluster_model.ua_to_cluster

    def donor_ok(victim_key, donor_key):
        victim, donor = table.get(victim_key), table.get(donor_key)
        return victim is not None and donor is not None and victim != donor

    return build_event_streams(
        small_dataset, EventStreamConfig(seed=11), donor_ok=donor_ok
    )


@pytest.fixture()
def cluster(trained):
    supervisor = ShardSupervisor.from_polygraph(
        trained,
        config=ClusterConfig(n_shards=3, heartbeat_interval_s=5.0),
    )
    router = ClusterRouter(supervisor).start()
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


class TestLanePlacement:
    def test_lane_follows_the_ring(self, cluster):
        sessions = ClusterSessionService(cluster, ttl_seconds=1e9)
        ring = cluster.supervisor.ring
        for i in range(50):
            sid = f"sess-{i}"
            assert sessions.lane_of(sid) == ring.node_for(sid.encode())

    def test_drained_ring_places_deterministically(self, cluster):
        sessions = ClusterSessionService(cluster, ttl_seconds=1e9)
        ring = cluster.supervisor.ring
        for shard_id in list(cluster.supervisor.shards):
            ring.remove(shard_id)
        lanes = {f"sess-{i}": sessions.lane_of(f"sess-{i}") for i in range(30)}
        # Stable across calls, valid lane ids, and not all one lane.
        assert all(
            sessions.lane_of(sid) == lane for sid, lane in lanes.items()
        )
        assert set(lanes.values()) <= set(cluster.supervisor.shards)
        assert len(set(lanes.values())) > 1

    def test_state_lands_in_the_owning_lane(self, cluster, streams):
        sessions = ClusterSessionService(cluster, ttl_seconds=1e9)
        stream = streams[0]
        sessions.observe_wire(stream.first.to_wire())
        owner = sessions.lane_of(stream.session_id)
        snapshot = sessions.session_snapshot(stream.session_id)
        assert snapshot is not None
        assert snapshot["shard"] == owner
        # The other lanes hold nothing for this session.
        for shard_id, lane in sessions._lanes.items():
            state = lane.session_snapshot(stream.session_id)
            assert (state is None) == (shard_id != owner)

    def test_snapshot_probes_other_lanes_after_ring_movement(
        self, cluster, streams
    ):
        sessions = ClusterSessionService(cluster, ttl_seconds=1e9)
        stream = streams[0]
        sessions.observe_wire(stream.first.to_wire())
        owner = sessions.lane_of(stream.session_id)
        cluster.supervisor.ring.remove(owner)
        try:
            snapshot = sessions.session_snapshot(stream.session_id)
            assert snapshot is not None
            assert snapshot["shard"] == owner
        finally:
            cluster.supervisor.ring.add(owner)


def _two_thread_shards(trained):
    supervisor = ShardSupervisor.from_polygraph(
        trained, config=ClusterConfig(n_shards=2, heartbeat_interval_s=5.0)
    )
    return ClusterRouter(supervisor).start()


class TestLanePlacementByParsedId:
    """A valid envelope's key order must not decide where its state goes."""

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
        router = _two_thread_shards(trained)
        try:
            caught = {}
            for spelling in ("canonical", "reversed_keys"):
                sessions = ClusterSessionService(router, ttl_seconds=1e9)
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
                # Every event of a session found the session's one lane.
                status = sessions.status_dict()
                assert status["active_sessions"] == len(swaps)
                assert len(
                    [s for s in status["shards"].values() if s["events_total"]]
                ) == 2
        finally:
            router.shutdown()
        assert caught["canonical"]
        assert caught["reversed_keys"] == caught["canonical"]


class TestClusterObserveMany:
    @pytest.fixture(scope="class")
    def twin_routers(self, trained):
        twins = _two_thread_shards(trained), _two_thread_shards(trained)
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
            batched = ClusterSessionService(twin_routers[0], **bounds)
            sequential = ClusterSessionService(twin_routers[1], **bounds)
            got, expected = differential(batched, sequential, wires, drawn["cuts"])
            assert got == expected, first_difference(got, expected)
            assert batched.status_dict() == sequential.status_dict()
            for shard_id, lane in batched._lanes.items():
                assert lane_state(lane) == lane_state(sequential._lanes[shard_id])
            assert shard_state(twin_routers[0]) == shard_state(twin_routers[1])
            assert (
                twin_routers[0].validator.quarantine.counts()
                == twin_routers[1].validator.quarantine.counts()
            )

        check()

    def test_a_batch_is_one_router_call_in_arrival_order(self, cluster, streams):
        calls = []
        score_many = cluster.score_many

        def recording(wires):
            calls.append(list(wires))
            return score_many(wires)

        cluster.score_many = recording
        sessions = ClusterSessionService(cluster, ttl_seconds=1e9)
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
        assert len({sessions.lane_of(e.session_id) for e in events}) > 1


class TestClusterSessionParity:
    def test_observations_match_the_single_process_layer(
        self, cluster, trained, streams
    ):
        single = SessionScoringService(
            ScoringService(trained), ttl_seconds=1e9
        )
        sharded = ClusterSessionService(cluster, ttl_seconds=1e9)
        expected = [_essence(o) for o in _observe_all(single, streams)]
        actual = [_essence(o) for o in _observe_all(sharded, streams)]
        assert actual == expected

    def test_aggregate_status_sums_the_lanes(self, cluster, streams):
        sessions = ClusterSessionService(cluster, ttl_seconds=1e9)
        _observe_all(sessions, streams)
        status = sessions.status_dict()
        assert status["partitions"] == 3
        assert set(status["shards"]) == set(cluster.supervisor.shards)
        for field in (
            "active_sessions",
            "events_total",
            "revisions_total",
            "escalations_total",
        ):
            assert status[field] == sum(
                lane[field] for lane in status["shards"].values()
            )
        assert status["events_total"] == sum(
            len(s.events) for s in streams[:12]
        )
        # At least two lanes actually saw traffic.
        active = [
            lane
            for lane in status["shards"].values()
            if lane["events_total"] > 0
        ]
        assert len(active) > 1

    def test_metrics_keep_single_process_names_plus_per_shard(
        self, cluster, streams
    ):
        sessions = ClusterSessionService(cluster, ttl_seconds=1e9)
        _observe_all(sessions, streams, limit=4)
        text = "\n".join(sessions.metrics_lines())
        assert "polygraph_session_active " in text
        assert "polygraph_session_events_total " in text
        for shard_id in cluster.supervisor.shards:
            assert (
                f'polygraph_session_active_by_shard{{shard="{shard_id}"}}'
                in text
            )


class TestEventLogSubdirectories:
    def test_each_lane_writes_its_own_subdirectory(
        self, cluster, streams, tmp_path
    ):
        sessions = ClusterSessionService(
            cluster, ttl_seconds=1e9, event_log_root=tmp_path / "logs"
        )
        observed = _observe_all(sessions, streams)
        assert observed
        touched = {
            sessions.lane_of(s.session_id) for s in streams[:12]
        }
        appended = 0
        for shard_id in touched:
            lane_dir = tmp_path / "logs" / f"shard-{shard_id}"
            assert lane_dir.is_dir(), shard_id
            lane_log = sessions._lanes[shard_id].event_log
            assert lane_log is not None
            assert lane_log.root == lane_dir
            appended += lane_log.appended
        assert appended == len(observed)


class TestSessionsEndpointThroughTheCluster:
    def _call(self, app, method, path, body=b""):
        captured = {}

        def start_response(status, headers):
            captured["status"] = status

        environ = {
            "REQUEST_METHOD": method,
            "PATH_INFO": path,
            "CONTENT_LENGTH": str(len(body)),
            "wsgi.input": io.BytesIO(body),
        }
        chunks = app(environ, start_response)
        return captured["status"], json.loads(b"".join(chunks))

    def test_event_and_sessions_endpoints(self, cluster, streams):
        app = CollectionApp(
            cluster,
            sessions=ClusterSessionService(cluster, ttl_seconds=1e9),
        )
        stream = next(s for s in streams if len(s.events) >= 2)
        for event in stream.events:
            status, document = self._call(
                app, "POST", "/event", event.to_wire()
            )
            assert status == "202 Accepted", document
            assert document["session_id"] == stream.session_id
        status, document = self._call(
            app, "GET", f"/session/{stream.session_id}"
        )
        assert status == "200 OK"
        assert document["event_count"] == len(stream.events)
        assert document["shard"] in cluster.supervisor.shards
        status, document = self._call(app, "GET", "/sessions")
        assert status == "200 OK"
        assert document["partitions"] == 3
        assert document["events_total"] == len(stream.events)
