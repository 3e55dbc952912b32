"""Sharded serving: ring, router, partitions.

The contract under test: placement is deterministic and
minimal-movement, and a router over any number of in-process partitions
answers, and counts, as one runtime fed the same wires in order — for
any cut into batches, either affinity and hostile wires.
"""

from __future__ import annotations

import json
from urllib.request import urlopen

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterConfig,
    ClusterRouter,
    RouterConfig,
    ShardSupervisor,
)
from repro.cluster import router as router_mod
from repro.cluster.ring import HashRing, wire_routing_key
from repro.core.pipeline import BrowserPolygraph
from repro.durable import UnreadableFileError
from repro.runtime.service import RuntimeConfig, RuntimeScoringService
from repro.service.aingest import AsyncIngestServer
from repro.service.api import CollectionApp
from repro.service.scoring import ScoringService
from repro.traffic.replay import iter_wire_payloads
from tests.oracle import COLLECT_KINDS, collect_wires, cut_batches, essence


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
        with ShardSupervisor(
            trained, config=ClusterConfig(n_shards=3)
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
        with pytest.raises(UnreadableFileError, match="digest mismatch"):
            ShardSupervisor(
                path, config=ClusterConfig(n_shards=1), expected_digest="0" * 64
            )

    def test_fingerprint_affinity_matches_session_affinity(self, trained, wires):
        sample = wires[:200]
        outcomes = []
        for affinity in ("session", "fingerprint"):
            with ShardSupervisor(
                trained,
                config=ClusterConfig(n_shards=3),
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
            with ShardSupervisor(
                trained,
                config=ClusterConfig(n_shards=3),
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
        with ShardSupervisor(
            trained, config=ClusterConfig(n_shards=2)
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
        with ShardSupervisor(
            trained, config=ClusterConfig(n_shards=2)
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
        with ShardSupervisor(
            trained, config=ClusterConfig(n_shards=3)
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
        with ShardSupervisor(
            trained, config=ClusterConfig(n_shards=2)
        ) as supervisor:
            router = ClusterRouter(supervisor)
            verdict = router.score_wire(b"\x00 not json")
            assert not verdict.accepted
            assert router.reject_counts == {"malformed": 1}


# ----------------------------------------------------------------------
# partitions answer as one runtime


def _parsed_sid(wire):
    """The session id the wire contract would read, or ``None``."""
    try:
        document = json.loads(wire)
    except (ValueError, RecursionError):
        return None
    sid = document.get("sid") if isinstance(document, dict) else None
    return sid if isinstance(sid, str) else None


def _one_partition_per_sid(wires, ring, affinity):
    """``wires`` less each wire whose session id an earlier wire routed
    to another partition: a dedup window is per partition, so such a
    reuse is a duplicate only where its wire lands (ARCHITECTURE)."""
    home, kept = {}, []
    for wire in wires:
        sid = _parsed_sid(wire)
        owner = ring.node_for(wire_routing_key(wire, affinity))
        if sid is not None and home.setdefault(sid, owner) != owner:
            continue
        kept.append(wire)
    return kept


class TestPartitionParity:
    """The router over 1-3 partitions against one runtime."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_shards=st.integers(1, 3),
        affinity=st.sampled_from(["session", "fingerprint"]),
        picks=st.lists(
            st.tuples(st.sampled_from(COLLECT_KINDS), st.integers(0, 1 << 20)),
            max_size=120,
        ),
        cuts=st.lists(st.integers(1, 64), min_size=1, max_size=12),
        cache_entries=st.sampled_from([0, 4, 8192]),
    )
    def test_verdicts_and_counters_equal_one_runtime(
        self, oracle_world, n_shards, affinity, picks, cuts, cache_entries
    ):
        world = oracle_world
        config = RuntimeConfig(cache_entries=cache_entries)
        supervisor = ShardSupervisor(
            BrowserPolygraph(world.model.config).install(world.model),
            config=ClusterConfig(n_shards=n_shards),
            runtime_config=config,
        )
        router = ClusterRouter(supervisor, RouterConfig(affinity=affinity))
        reference = RuntimeScoringService(
            BrowserPolygraph(world.model.config).install(world.model), config=config
        )
        wires = collect_wires(world.rows, picks)
        wires = _one_partition_per_sid(wires, supervisor.ring, affinity)
        got, expected = [], []
        for batch in cut_batches(wires, cuts):
            got += router.score_many(batch)
            expected += reference.score_many(batch)
        router.shutdown()
        reference.shutdown()
        assert [essence(v) for v in got] == [essence(v) for v in expected]
        owners = [supervisor.ring.node_for(wire_routing_key(w, affinity)) for w in wires]
        status = router.cluster_status()["router"]
        assert status["requests_total"] == reference.requests_total == len(wires)
        assert status["routed_by_shard"] == {
            shard_id: owners.count(shard_id) for shard_id in sorted(set(owners))
        }
        assert router.scored_count == reference.scored_count
        assert router.flagged_count == reference.flagged_count
        assert router.reject_counts == {
            reason.value: count
            for reason, count in reference.validator.quarantine.counts().items()
        }
        unknown = {}
        for stats in supervisor.transport_stats().values():
            for vendor, count in stats["unknown_ua"].items():
                unknown[vendor] = unknown.get(vendor, 0) + count
        assert unknown == reference.unknown_ua_counts

    def test_a_reused_sid_is_a_duplicate_only_in_its_own_partition(self, trained, wires):
        """Fingerprint affinity: two fingerprints under one sid may land
        on two partitions, and then neither window has seen the other."""
        with ShardSupervisor(trained, config=ClusterConfig(n_shards=2)) as supervisor:
            owner = supervisor.ring.node_for
            first = wires[0]
            other = json.loads(next(
                w for w in wires
                if owner(wire_routing_key(w, "fingerprint"))
                != owner(wire_routing_key(first, "fingerprint"))
            ))
            other["sid"] = json.loads(first)["sid"]
            reused = [first, json.dumps(other, separators=(",", ":")).encode()]
            router = ClusterRouter(supervisor, RouterConfig(affinity="fingerprint"))
            verdicts = router.score_many(reused)
        one = RuntimeScoringService(trained)
        assert [v.reject_reason for v in one.score_many(reused)] == [None, "duplicate"]
        assert [v.reject_reason for v in verdicts] == [None, None]
        one.shutdown()

    def test_a_raising_model_answers_internal_error_as_one_process(
        self, trained, wires, monkeypatch
    ):
        def broken(self, rows, user_agents):
            raise ValueError("model down")

        monkeypatch.setattr(type(trained.detection_snapshot()[1]), "evaluate_vectors", broken)
        with ShardSupervisor(
            trained, config=ClusterConfig(n_shards=3),
            runtime_config=RuntimeConfig(cache_entries=0),
        ) as supervisor:
            router = ClusterRouter(supervisor)
            verdicts = router.score_many(wires[:60] + [b"not json"])
        one = RuntimeScoringService(trained, config=RuntimeConfig(cache_entries=0))
        expected = one.score_many(wires[:60] + [b"not json"])
        one.shutdown()
        assert [essence(v) for v in verdicts] == [essence(v) for v in expected]
        assert {v.reject_reason for v in verdicts[:60]} == {"internal_error: ValueError"}
        assert router.requests_total == 61
        assert router.scored_count == 0
        assert router.reject_counts == {"malformed": 1}


class TestConcurrency:
    def test_concurrent_batches_keep_exact_counters(self, trained, wires):
        """The async front end's collect and event batches enter
        ``score_many`` at once; no wire and no count is lost."""
        import sys
        import threading

        reference = ScoringService(trained)
        expected = {w: _essence(reference.score_wire(w)) for w in wires}
        supervisor = ShardSupervisor(trained, config=ClusterConfig(n_shards=3))
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
            started.wait(timeout=10.0)
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            answered = [pair for lane in got for pair in lane]
            assert len(answered) == len(wires)
            assert all(_essence(v) == expected[w] for w, v in answered)
            status = router.cluster_status()["router"]
            assert status["requests_total"] == len(wires)
            assert sum(status["routed_by_shard"].values()) == len(wires)
            assert router.scored_count == reference.scored_count
            assert router.flagged_count == reference.flagged_count
        finally:
            sys.setswitchinterval(interval)
            router.shutdown()


# ----------------------------------------------------------------------
# HTTP surface


class TestClusterEndpoint:
    def test_cluster_endpoint_reports_topology(self, trained, wires):
        with ShardSupervisor(
            trained, config=ClusterConfig(n_shards=2)
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
        with ShardSupervisor(
            trained, config=ClusterConfig(n_shards=2)
        ) as supervisor:
            app = CollectionApp(ClusterRouter(supervisor))
            with AsyncIngestServer(app, host="127.0.0.1", port=0) as server:
                url = f"http://127.0.0.1:{server.port}/collect"
                with urlopen(url, data=wires[0], timeout=10) as response:
                    assert response.status == 202
                    assert json.loads(response.read())["accepted"] is True
