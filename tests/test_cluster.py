"""Sharded serving cluster: ring, router, supervisor.

The contract under test: placement is deterministic and
minimal-movement, a killed shard loses no requests, and re-routed
requests are byte-identical to single-shard scoring — for any kill
schedule and any cut into batches.
"""

from __future__ import annotations

import json
import time
from urllib.request import urlopen

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterConfig,
    ClusterRouter,
    RouterConfig,
    ShardError,
    ShardSupervisor,
)
from repro.cluster import router as router_mod
from repro.cluster.ring import HashRing, wire_routing_key
from repro.service.aingest import AsyncIngestServer
from repro.service.api import CollectionApp
from repro.service.scoring import OVERLOADED_REASON, ScoringService, overloaded_verdict
from repro.traffic.replay import iter_wire_payloads


def _essence(verdict):
    """Every verdict field except latency (the only legitimate delta)."""
    return (
        verdict.session_id,
        verdict.accepted,
        verdict.flagged,
        verdict.risk_factor,
        verdict.reject_reason,
    )


@pytest.fixture(scope="module")
def wires(small_dataset):
    return [w for _, w in zip(range(600), iter_wire_payloads(small_dataset))]


# ----------------------------------------------------------------------
# ring


class TestHashRing:
    def test_placement_is_deterministic_across_instances(self):
        first, second = HashRing(), HashRing()
        for ring in (first, second):
            for node in ("s0", "s1", "s2", "s3"):
                ring.add(node)
        keys = [f"sess-{i}".encode() for i in range(500)]
        assert [first.node_for(k) for k in keys] == [
            second.node_for(k) for k in keys
        ]

    def test_remove_moves_only_the_removed_nodes_keys(self):
        ring = HashRing()
        for node in ("s0", "s1", "s2", "s3"):
            ring.add(node)
        keys = [f"sess-{i}".encode() for i in range(2_000)]
        before = {k: ring.node_for(k) for k in keys}
        ring.remove("s2")
        for key, owner in before.items():
            if owner == "s2":
                assert ring.node_for(key) != "s2"
            else:
                assert ring.node_for(key) == owner

    def test_readd_restores_previous_placement(self):
        ring = HashRing()
        for node in ("s0", "s1", "s2"):
            ring.add(node)
        keys = [f"sess-{i}".encode() for i in range(500)]
        before = [ring.node_for(k) for k in keys]
        ring.remove("s1")
        ring.add("s1")
        assert [ring.node_for(k) for k in keys] == before

    def test_preference_is_the_failover_order(self):
        ring = HashRing()
        for node in ("s0", "s1", "s2", "s3"):
            ring.add(node)
        key = b"sess-42"
        order = ring.preference(key)
        assert sorted(order) == ["s0", "s1", "s2", "s3"]
        assert order[0] == ring.node_for(key)
        ring.remove(order[0])
        assert ring.node_for(key) == order[1]

    def test_spread_is_roughly_balanced(self):
        ring = HashRing(vnodes=64)
        for node in ("s0", "s1", "s2", "s3"):
            ring.add(node)
        keys = [f"sess-{i}".encode() for i in range(4_000)]
        counts = ring.spread(keys)
        assert sum(counts.values()) == len(keys)
        for node, count in counts.items():
            assert count > len(keys) * 0.10, (node, counts)

    def test_epoch_bumps_only_on_membership_change(self):
        ring = HashRing()
        ring.add("s0")
        epoch = ring.epoch
        ring.add("s0")  # idempotent: no change, no bump
        assert ring.epoch == epoch
        ring.remove("s0")
        assert ring.epoch == epoch + 1
        ring.remove("s0")
        assert ring.epoch == epoch + 1

    def test_empty_ring_has_no_owner(self):
        ring = HashRing()
        assert ring.node_for(b"anything") is None
        assert ring.preference(b"anything") == []


class TestWireRoutingKey:
    WIRE = b'{"sid":"sess-1","ua":"Mozilla/5.0","f":[1,2,3]}'

    def test_session_affinity_extracts_the_sid(self):
        assert wire_routing_key(self.WIRE, "session") == b"sess-1"

    def test_fingerprint_affinity_is_sid_independent(self):
        other = self.WIRE.replace(b"sess-1", b"sess-2")
        assert wire_routing_key(self.WIRE, "fingerprint") == wire_routing_key(
            other, "fingerprint"
        )
        assert wire_routing_key(self.WIRE, "session") != wire_routing_key(
            other, "session"
        )

    def test_malformed_wire_falls_back_to_whole_payload(self):
        assert wire_routing_key(b"not json at all") == b"not json at all"


# ----------------------------------------------------------------------
# cluster scoring


class TestClusterScoring:
    def test_cluster_verdicts_match_the_reference_service(self, trained, wires):
        reference = ScoringService(trained)
        expected = [_essence(reference.score_wire(w)) for w in wires]
        with ShardSupervisor.from_polygraph(
            trained, config=ClusterConfig(n_shards=3, heartbeat_interval_s=5.0)
        ) as supervisor:
            router = ClusterRouter(supervisor)
            verdicts = router.score_many(wires)
            assert [_essence(v) for v in verdicts] == expected
            assert router.scored_count == sum(1 for v in verdicts if v.accepted)

    def test_a_replica_with_the_wrong_digest_refuses_to_boot(
        self, trained, tmp_path
    ):
        path = tmp_path / "model.json"
        digest = trained.save(path)
        ShardSupervisor(
            path, config=ClusterConfig(n_shards=1), expected_digest=digest
        ).shutdown()
        with pytest.raises(ShardError, match="digest mismatch"):
            ShardSupervisor(
                path, config=ClusterConfig(n_shards=1), expected_digest="0" * 64
            )

    def test_killed_shard_loses_no_requests(self, trained, wires):
        reference = ScoringService(trained)
        expected = [_essence(reference.score_wire(w)) for w in wires]
        supervisor = ShardSupervisor.from_polygraph(
            trained, config=ClusterConfig(n_shards=2, heartbeat_interval_s=0.05)
        )
        router = ClusterRouter(supervisor).start()
        try:
            half = len(wires) // 2
            first = router.score_many(wires[:half])
            supervisor.kill("s0")
            second = router.score_many(wires[half:])
            verdicts = first + second
            assert len(verdicts) == len(wires)
            assert not any(
                v is None or v.reject_reason == OVERLOADED_REASON
                for v in verdicts
            )
            assert [_essence(v) for v in verdicts] == expected
            deadline = time.time() + 10.0
            while time.time() < deadline and supervisor.healthy_count < 2:
                time.sleep(0.02)
            assert supervisor.healthy_count == 2
            assert supervisor.restarts("s0") == 1
        finally:
            router.shutdown()

    def test_fingerprint_affinity_matches_session_affinity(self, trained, wires):
        sample = wires[:200]
        outcomes = []
        for affinity in ("session", "fingerprint"):
            with ShardSupervisor.from_polygraph(
                trained,
                config=ClusterConfig(n_shards=3, heartbeat_interval_s=5.0),
            ) as supervisor:
                router = ClusterRouter(supervisor, RouterConfig(affinity=affinity))
                outcomes.append(
                    [_essence(v) for v in router.score_many(sample)]
                )
        assert outcomes[0] == outcomes[1]

    def test_ring_owners_are_memoized_for_fingerprints_not_session_ids(
        self, trained, wires
    ):
        """A session id never comes back, so remembering its owner buys
        nothing; a fingerprint does, so its owner is looked up once.
        Either way a wire goes where the ring says."""
        sample = []
        for number in range(1_000):
            document = json.loads(wires[number % len(wires)])
            document["sid"] = f"memo-{number:04d}"
            sample.append(json.dumps(document, separators=(",", ":")).encode())
        sizes = {}
        for affinity in ("session", "fingerprint"):
            with ShardSupervisor.from_polygraph(
                trained,
                config=ClusterConfig(n_shards=3, heartbeat_interval_s=5.0),
            ) as supervisor:
                router = ClusterRouter(supervisor, RouterConfig(affinity=affinity))
                for start in range(0, len(sample), 100):
                    router.score_many(sample[start : start + 100])
                owners = [
                    supervisor.ring.node_for(wire_routing_key(wire, affinity))
                    for wire in sample
                ]
                routed = router.cluster_status()["router"]["routed_by_shard"]
                assert routed == {
                    shard_id: owners.count(shard_id) for shard_id in sorted(set(owners))
                }
                assert len(set(owners)) == 3
                sizes[affinity] = len(router._route_memo)
                if affinity == "fingerprint":
                    assert router._route_memo == {
                        hash(key): supervisor.ring.node_for(key)
                        for key in {wire_routing_key(w, affinity) for w in sample}
                    }
        assert sizes["session"] == 0 < sizes["fingerprint"] <= len(wires)

    def test_the_route_memo_keeps_hashes_within_its_bound(self, trained, wires):
        """An entry is the key's hash and a shard id, never a copy of a
        fingerprint tail, and the memo stays within 65,536 entries."""
        with ShardSupervisor.from_polygraph(
            trained, config=ClusterConfig(n_shards=2, heartbeat_interval_s=5.0)
        ) as supervisor:
            router = ClusterRouter(supervisor, RouterConfig(affinity="fingerprint"))
            router.score_many(wires)
            memo = router._route_memo
            assert memo and all(key.__class__ is int for key in memo)
            assert len(memo) <= router_mod._ROUTE_MEMO_LIMIT == 65_536

    def test_the_route_memo_is_cleared_whole_at_its_bound(
        self, trained, wires, monkeypatch
    ):
        monkeypatch.setattr(router_mod, "_ROUTE_MEMO_LIMIT", 4)
        firsts = {}  # one wire per distinct fingerprint, in order
        for wire in wires:
            firsts.setdefault(wire_routing_key(wire, "fingerprint"), wire)
        keys = list(firsts)[:6]
        assert len(keys) == 6
        with ShardSupervisor.from_polygraph(
            trained, config=ClusterConfig(n_shards=2, heartbeat_interval_s=5.0)
        ) as supervisor:
            router = ClusterRouter(supervisor, RouterConfig(affinity="fingerprint"))
            for number, key in enumerate(keys):
                router.score_many([firsts[key]])
                if number < 4:
                    assert list(router._route_memo) == [hash(k) for k in keys[: number + 1]]
            # The fifth key found the memo full and started it afresh.
            assert list(router._route_memo) == [hash(key) for key in keys[4:]]

    def test_wires_in_one_memo_slot_get_the_reference_verdicts(
        self, trained, wires, monkeypatch
    ):
        """Every key forced onto one hash: each wire goes to whichever
        shard the slot's first key named, and each verdict is still the
        reference's, for every shard serves the same model file."""
        monkeypatch.setattr(router_mod, "hash", lambda key: 0, raising=False)
        reference = ScoringService(trained)
        expected = [_essence(reference.score_wire(w)) for w in wires]
        with ShardSupervisor.from_polygraph(
            trained, config=ClusterConfig(n_shards=3, heartbeat_interval_s=5.0)
        ) as supervisor:
            router = ClusterRouter(supervisor, RouterConfig(affinity="fingerprint"))
            verdicts = []
            for start in range(0, len(wires), 50):
                verdicts += router.score_many(wires[start : start + 50])
            assert [_essence(v) for v in verdicts] == expected
            (owner,) = set(router._route_memo.values())
            assert list(router._route_memo) == [0]
            owners = {
                supervisor.ring.node_for(wire_routing_key(w, "fingerprint"))
                for w in wires
            }
            assert len(owners) == 3  # the ring would have spread them
            routed = router.cluster_status()["router"]["routed_by_shard"]
            assert routed == {owner: len(wires)}

    def test_rejects_are_aggregated_like_a_validator(self, trained):
        with ShardSupervisor.from_polygraph(
            trained, config=ClusterConfig(n_shards=2, heartbeat_interval_s=5.0)
        ) as supervisor:
            router = ClusterRouter(supervisor)
            verdict = router.score_wire(b"\x00 not json")
            assert not verdict.accepted
            assert router.reject_counts == {"malformed": 1}


# ----------------------------------------------------------------------
# failover: any kill schedule, any cut


_SHARD_IDS = ("s0", "s1", "s2")

# Batch sizes, cycled until the wires run out.
_cuts = st.lists(st.integers(1, 128), min_size=1, max_size=24)

# shard -> (where in the run it fails, as a share of the batches; how):
# "dead" refuses every chunk, "sheds" answers every other wire of a
# chunk and sheds the rest as ``overloaded`` (a pipe breaking mid-chunk).
_failures = st.dictionaries(
    st.sampled_from(_SHARD_IDS),
    st.tuples(st.floats(0.0, 1.0), st.sampled_from(["dead", "sheds"])),
)


def _batches(wires, cuts):
    out, start, turn = [], 0, 0
    while start < len(wires):
        size = cuts[turn % len(cuts)]
        out.append(wires[start : start + size])
        start += size
        turn += 1
    return out


class TestFailoverProperty:
    """Heartbeat parked: only router-reported failures move the ring."""

    @pytest.fixture(scope="class")
    def traffic(self, wires):
        """~300 wires, every 10th a stateless reject (no duplicate sids:
        a dedup window is per shard and does not survive its shard)."""
        mixed = list(wires[:300])
        for i in range(0, len(mixed), 10):
            mixed[i] = (
                b"\x00 not json %d" % i
                if i % 20
                else mixed[i].replace(b'"f":[', b'"f":[999999,', 1)
            )
        return mixed

    def _run(self, trained, traffic, affinity, cuts, failures, per_wire):
        """Score ``traffic`` under the schedule; return (router, verdicts, asked)."""
        supervisor = ShardSupervisor.from_polygraph(
            trained,
            config=ClusterConfig(n_shards=3, heartbeat_interval_s=3600.0),
        )
        router = ClusterRouter(supervisor, RouterConfig(affinity=affinity)).start()
        asked = {shard_id: [] for shard_id in _SHARD_IDS}
        shedding = set()
        try:
            for shard_id, shard in supervisor.shards.items():
                # Record what each replica is asked, whatever the
                # schedule has done to it by then.
                def surface(chunk, shard_id=shard_id, real=shard.score_chunk):
                    asked[shard_id].extend(chunk)
                    if shard_id not in shedding:
                        return real(chunk)
                    answered = iter(real(chunk[::2]))
                    return [
                        overloaded_verdict() if i % 2 else next(answered)
                        for i in range(len(chunk))
                    ]

                shard.score_chunk = surface
            batches = _batches(traffic, cuts)
            due = {}
            for shard_id, (share, how) in failures.items():
                due.setdefault(int(share * len(batches)), []).append((shard_id, how))
            verdicts = []
            for number, batch in enumerate(batches):
                for shard_id, how in due.get(number, ()):
                    if how == "dead":
                        supervisor.kill(shard_id)
                    else:
                        shedding.add(shard_id)
                if per_wire:
                    verdicts.extend(router.score_wire(w) for w in batch)
                else:
                    verdicts.extend(router.score_many(batch))
            return router, verdicts, asked
        finally:
            router.shutdown()

    def test_any_schedule_with_a_survivor_matches_the_reference(
        self, trained, traffic
    ):
        reference = ScoringService(trained)
        expected = [_essence(reference.score_wire(w)) for w in traffic]
        expected_rejects = {
            reason.value: n
            for reason, n in reference.validator.quarantine.counts().items()
        }
        assert len(expected_rejects) == 2

        @settings(max_examples=40, deadline=None)
        @given(
            affinity=st.sampled_from(["session", "fingerprint"]),
            cuts=_cuts,
            failures=_failures.filter(lambda f: len(f) < len(_SHARD_IDS)),
            per_wire=st.booleans(),
        )
        def check(affinity, cuts, failures, per_wire):
            router, verdicts, asked = self._run(
                trained, traffic, affinity, cuts, failures, per_wire
            )
            assert [_essence(v) for v in verdicts] == expected
            status = router.cluster_status()["router"]
            assert status["requests_total"] == len(traffic)
            assert status["unroutable_total"] == 0
            assert sum(status["routed_by_shard"].values()) == len(traffic)
            assert router.scored_count == reference.scored_count
            assert router.flagged_count == reference.flagged_count
            assert router.reject_counts == expected_rejects
            for shard_id, chunked in asked.items():
                assert len(set(chunked)) == len(chunked), shard_id
            if not failures:
                assert status["failovers_total"] == 0

        check()

    def test_every_shard_dead_answers_overloaded(self, trained, traffic):
        @settings(max_examples=10, deadline=None)
        @given(
            affinity=st.sampled_from(["session", "fingerprint"]),
            cuts=_cuts,
            per_wire=st.booleans(),
        )
        def check(affinity, cuts, per_wire):
            failures = {shard_id: (0.0, "dead") for shard_id in _SHARD_IDS}
            router, verdicts, asked = self._run(
                trained, traffic, affinity, cuts, failures, per_wire
            )
            assert len(verdicts) == len(traffic)
            assert all(v.reject_reason == OVERLOADED_REASON for v in verdicts)
            status = router.cluster_status()["router"]
            assert status["unroutable_total"] == len(traffic)
            assert status["requests_total"] == len(traffic)
            assert sum(status["routed_by_shard"].values()) == 0
            assert router.scored_count == 0
            for shard_id, chunked in asked.items():
                assert len(set(chunked)) == len(chunked), shard_id

        check()


class TestReentrancy:
    def test_concurrent_batches_fail_over_with_exact_counters(
        self, trained, wires
    ):
        """The async front end's collect and event batches enter
        ``score_many`` at once; a dead shard under them loses neither a
        wire nor a count."""
        import sys
        import threading

        reference = ScoringService(trained)
        expected = {w: _essence(reference.score_wire(w)) for w in wires}
        supervisor = ShardSupervisor.from_polygraph(
            trained,
            config=ClusterConfig(n_shards=3, heartbeat_interval_s=3600.0),
        )
        router = ClusterRouter(supervisor).start()
        n_threads = 6
        got = [[] for _ in range(n_threads)]
        started = threading.Barrier(n_threads + 1)

        def producer(lane):
            mine = wires[lane::n_threads]
            started.wait(timeout=10.0)
            for begin in range(0, len(mine), 10):
                batch = mine[begin : begin + 10]
                got[lane].extend(zip(batch, router.score_many(batch)))

        threads = [
            threading.Thread(target=producer, args=(lane,), daemon=True)
            for lane in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            # Dead but still on the ring when every producer starts: they
            # find out, report it and route around it concurrently.
            supervisor.kill("s1")
            started.wait(timeout=10.0)
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            answered = [pair for lane in got for pair in lane]
            assert len(answered) == len(wires)
            assert all(_essence(v) == expected[w] for w, v in answered)
            status = router.cluster_status()["router"]
            assert status["requests_total"] == len(wires)
            assert status["unroutable_total"] == 0
            assert status["failovers_total"] > 0
            assert sum(status["routed_by_shard"].values()) == len(wires)
            assert router.scored_count == reference.scored_count
            assert router.flagged_count == reference.flagged_count
        finally:
            sys.setswitchinterval(interval)
            router.shutdown()


class TestProcessBackend:
    def test_process_shards_score_and_recover(self, trained, wires):
        sample = wires[:60]
        reference = ScoringService(trained)
        expected = [_essence(reference.score_wire(w)) for w in sample]
        supervisor = ShardSupervisor.from_polygraph(
            trained,
            config=ClusterConfig(
                n_shards=2, backend="process", heartbeat_interval_s=0.1
            ),
        )
        router = ClusterRouter(supervisor).start()
        try:
            verdicts = router.score_many(sample)
            assert [_essence(v) for v in verdicts] == expected
            assert supervisor.shards["s0"].ping() == trained.model_generation
            supervisor.kill("s1")
            with pytest.raises(ShardError):
                supervisor.shards["s1"].ping()
            deadline = time.time() + 15.0
            while time.time() < deadline and supervisor.healthy_count < 2:
                time.sleep(0.05)
            assert supervisor.healthy_count == 2
        finally:
            router.shutdown()


    def test_a_heartbeat_sweep_takes_no_stats_snapshot(self, trained, monkeypatch):
        """``ping`` is the control round trip only: a sweep over healthy
        shards never reads their transport counters."""
        from repro.cluster.transport import ShmTransport

        reads = []
        snapshot = ShmTransport.transport_stats
        with ShardSupervisor.from_polygraph(
            trained, config=ClusterConfig(n_shards=2, heartbeat_interval_s=3600.0)
        ) as supervisor:
            monkeypatch.setattr(
                ShmTransport, "transport_stats",
                lambda transport: reads.append(transport) or snapshot(transport),
            )
            supervisor.check_once()
            assert reads == []
            assert [s["failures"] for s in supervisor.status_dict()["shards"]] == [0, 0]


# ----------------------------------------------------------------------
# HTTP surface


class TestClusterEndpoint:
    def test_cluster_endpoint_reports_topology(self, trained, wires):
        with ShardSupervisor.from_polygraph(
            trained, config=ClusterConfig(n_shards=2, heartbeat_interval_s=5.0)
        ) as supervisor:
            router = ClusterRouter(supervisor)
            router.score_many(wires[:50])
            app = CollectionApp(router)
            status, _, body = app.handle("GET", "/cluster")
            assert status == "200 OK"
            document = json.loads(body)
            assert document["n_shards"] == 2
            assert document["healthy_shards"] == 2
            assert len(document["shards"]) == 2
            assert document["router"]["requests_total"] == 50

            status, _, body = app.handle("GET", "/metrics")
            assert status == "200 OK"
            text = body.decode()
            assert "polygraph_cluster_shards 2" in text
            assert 'polygraph_cluster_shard_healthy{shard="s0"} 1' in text

            status, _, body = app.handle("GET", "/health")
            assert status == "200 OK"
            assert json.loads(body)["status"] == "ok"

    def test_cluster_endpoint_degrades_without_a_cluster(self, trained):
        app = CollectionApp(ScoringService(trained))
        status, headers, body = app.handle("GET", "/cluster")
        assert status == "404 Not Found"
        assert headers == [("Content-Type", "application/json")]
        assert json.loads(body)["mode"] == "single-process"

    def test_collect_through_the_cluster(self, trained, wires):
        with ShardSupervisor.from_polygraph(
            trained, config=ClusterConfig(n_shards=2, heartbeat_interval_s=5.0)
        ) as supervisor:
            app = CollectionApp(ClusterRouter(supervisor))
            with AsyncIngestServer(app, host="127.0.0.1", port=0) as server:
                url = f"http://127.0.0.1:{server.port}/collect"
                with urlopen(url, data=wires[0], timeout=10) as response:
                    assert response.status == 202
                    assert json.loads(response.read())["accepted"] is True
