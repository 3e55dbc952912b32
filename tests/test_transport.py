"""Shared-memory shard transport: slab, slot ring, bulk paths, failures.

The contract under test is the one the transport ISSUE pins down: the
slot ring backpressures instead of dropping work, a crashed child
re-attaches the *same* slab after restart, a slab that cannot be created
or attached fails the shard with a typed error and leaks nothing (there
is no second data plane to fall back to), and the bulk router-side paths
(``ingest_many``, ``get_many``) are observably identical to their
per-wire equivalents.
"""

from __future__ import annotations

import glob
import itertools
import json
import multiprocessing
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cluster.supervisor as supervisor_mod
from repro.browsers.profiles import BrowserProfile
from repro.browsers.useragent import Vendor, format_user_agent, parse_user_agent
from repro.cluster import (
    ClusterConfig,
    ClusterRouter,
    RouterConfig,
    ShardError,
    ShardSupervisor,
)
from repro.cluster.transport import ShmSlab, SlotRing, attach_slab_views
from repro.fingerprint.script import CollectionScript
from repro.runtime.cache import VerdictCache
from repro.runtime.fastingest import WireIngest
from repro.runtime.service import RuntimeConfig
from repro.service.ingest import PayloadValidator, RejectReason
from repro.service.scoring import OVERLOADED_REASON, ScoringService
from repro.traffic.replay import iter_wire_payloads


def _essence(verdict):
    return (
        verdict.session_id,
        verdict.accepted,
        verdict.flagged,
        verdict.risk_factor,
        verdict.reject_reason,
    )


@pytest.fixture(scope="module")
def wires(small_dataset):
    return [w for _, w in zip(range(300), iter_wire_payloads(small_dataset))]


# ----------------------------------------------------------------------
# slot ring


class TestSlotRing:
    def test_lease_release_roundtrip(self):
        ring = SlotRing(8)
        assert ring.occupancy == 0
        start, count = ring.lease(5)
        assert (start, count) == (0, 5)
        assert ring.occupancy == 5
        ring.release(5)
        assert ring.occupancy == 0

    def test_short_lease_at_ring_edge_then_wraparound(self):
        ring = SlotRing(4)
        assert ring.lease(3) == (0, 3)
        # Only one slot remains before the edge: the lease is short.
        assert ring.lease(3) == (3, 1)
        assert ring.lease(1) is None  # full
        ring.release(3)  # oldest run (FIFO)
        # The head sits at the edge; the next lease wraps to slot 0.
        assert ring.lease(3) == (0, 3)
        assert ring.occupancy == 4

    def test_lease_returns_none_only_when_full(self):
        ring = SlotRing(2)
        assert ring.lease(2) == (0, 2)
        assert ring.lease(1) is None
        ring.release(1)
        assert ring.lease(1) is not None

    def test_release_validates_against_over_free(self):
        ring = SlotRing(4)
        with pytest.raises(ValueError):
            ring.release(1)  # nothing leased
        ring.lease(2)
        with pytest.raises(ValueError):
            ring.release(3)

    def test_lease_validates_want(self):
        ring = SlotRing(4)
        with pytest.raises(ValueError):
            ring.lease(0)

    def test_single_slot_ring(self):
        ring = SlotRing(1)
        assert ring.lease(5) == (0, 1)
        assert ring.lease(1) is None
        ring.release(1)
        assert ring.lease(1) == (0, 1)


# ----------------------------------------------------------------------
# slab create / attach


class TestShmSlab:
    def test_attached_views_share_the_parent_buffer(self):
        slab = ShmSlab(4, 3)
        try:
            slab.rows[2] = (1.5, 2.5, 3.5)
            slab.meta[2] = 42
            meta, results, rows, close = attach_slab_views(slab.name, 4, 3)
            try:
                assert list(rows[2]) == [1.5, 2.5, 3.5]
                assert meta[2] == 42
                # Writes from the attached side flow back (the child
                # writes results in place; the parent reads them).
                results[2] = (1, 1, 9, 0)
                assert list(slab.results[2]) == [1, 1, 9, 0]
            finally:
                results = rows = meta = None
                close()
        finally:
            slab.close()

    def test_attach_rejects_header_mismatch(self):
        slab = ShmSlab(4, 3)
        try:
            with pytest.raises(ValueError):
                attach_slab_views(slab.name, 2, 3)
        finally:
            slab.close()

    def test_attach_missing_slab_raises(self):
        with pytest.raises((OSError, FileNotFoundError)):
            attach_slab_views("polygraph-no-such-slab", 4, 3)

    def test_slab_validates_dimensions(self):
        with pytest.raises(ValueError):
            ShmSlab(0, 3)
        with pytest.raises(ValueError):
            ShmSlab(4, 0)


# ----------------------------------------------------------------------
# bulk router-side paths: parity with the per-wire equivalents


class TestIngestManyParity:
    def _mixed_wires(self, wires):
        good = wires[:20]
        return (
            good
            + [good[0]]  # duplicate sid
            + [b"\x00 not json"]  # malformed
            + [good[1][:40]]  # truncated json
            + [good[2].replace(b'"f":[', b'"f":[999999,', 1)]  # range
        )

    @staticmethod
    def _contract(validator, wires):
        """What sequential ingest — the wire contract itself, wire by
        wire — answers: the reject reason, or the payload's fields."""
        outcomes = []
        for wire in wires:
            result = validator.ingest_wire(wire)
            payload = result.payload
            outcomes.append(
                result.reason if payload is None else (
                    payload.session_id, payload.user_agent,
                    payload.values, payload.suspicious_globals,
                )
            )
        return outcomes

    @staticmethod
    def _essence(outcomes):
        return [o[:4] if isinstance(o, tuple) else o for o in outcomes]

    def test_bulk_outcomes_match_sequential_ingest(self, wires):
        mixed = self._mixed_wires(wires)
        expected = self._contract(PayloadValidator(), mixed)
        outcomes = WireIngest().ingest_many(mixed)
        assert self._essence(outcomes) == expected
        assert all(
            o[4] == parse_user_agent(o[1]).key()
            for o in outcomes if isinstance(o, tuple)
        )

    def test_bulk_counters_match_sequential_ingest(self, wires):
        mixed = self._mixed_wires(wires)
        reference = PayloadValidator()
        self._contract(reference, mixed)
        bulk = WireIngest()
        bulk.ingest_many(mixed)
        assert bulk.requests_total == len(mixed)
        assert bulk.rejected_count == reference.quarantine.total_rejects
        assert bulk.validator.accepted_count == reference.accepted_count
        assert bulk.validator.quarantine.counts() == reference.quarantine.counts()

    def test_bulk_dedup_window_evicts_like_sequential(self, wires):
        # A window of 3 with 5 admitted wires: the first two fall out,
        # so re-sending them is NOT a duplicate, but the last is.
        sample = wires[:5]
        replay = [sample[0], sample[4]]
        expected = self._contract(
            PayloadValidator(dedup_window=3), sample + replay
        )
        bulk = WireIngest(PayloadValidator(dedup_window=3))
        outcomes = bulk.ingest_many(sample + replay)
        assert self._essence(outcomes) == expected
        assert outcomes[-1] is RejectReason.DUPLICATE
        assert isinstance(outcomes[-2], tuple)


class TestGetManyParity:
    def _loaded_pair(self, clock):
        caches = []
        for _ in range(2):
            cache = VerdictCache(
                max_entries=8, ttl_seconds=10.0, clock=clock
            )
            for i in range(4):
                cache.put(("ua", (i,)), f"verdict-{i}")
            caches.append(cache)
        return caches

    def test_results_and_counters_match_sequential_get(self):
        now = [100.0]
        reference, bulk = self._loaded_pair(lambda: now[0])
        keys = [
            ("ua", (0,)),
            None,  # rejected position: passes through untouched
            ("ua", (9,)),  # miss
            ("ua", (1,)),
            ("ua", (0,)),  # repeat hit
        ]
        expected = [
            None if k is None else reference.get(k) for k in keys
        ]
        assert bulk.get_many(keys) == expected
        assert bulk.hits == reference.hits
        assert bulk.misses == reference.misses
        assert bulk.expirations == reference.expirations

    def test_ttl_expiry_matches_sequential_get(self):
        now = [100.0]
        reference, bulk = self._loaded_pair(lambda: now[0])
        now[0] = 111.0  # past the 10s TTL
        keys = [("ua", (0,)), ("ua", (1,))]
        expected = [reference.get(k) for k in keys]
        assert bulk.get_many(keys) == expected == [None, None]
        assert bulk.expirations == reference.expirations == 2
        assert len(bulk) == len(reference)

    def test_lru_touch_matches_sequential_get(self):
        now = [100.0]
        reference, bulk = self._loaded_pair(lambda: now[0])
        reference.get(("ua", (0,)))
        bulk.get_many([("ua", (0,))])
        # Fill both to capacity: the eviction victims must coincide
        # (the get refreshed entry 0, so entry 1 goes first).
        for cache in (reference, bulk):
            for i in range(4, 9):
                cache.put(("ua", (i,)), f"verdict-{i}")
        for probe in range(9):
            key = ("ua", (probe,))
            assert (key in bulk) == (key in reference), probe


# ----------------------------------------------------------------------
# transport failure modes (process shards)


def _attach_denied(*args):
    """Stands in for ``attach_slab_views``; the forked child inherits it."""
    raise OSError(13, "Permission denied")


class TestTransportFailureModes:
    def test_tiny_ring_backpressures_without_losing_work(self, trained, wires):
        """Slot exhaustion stalls the producer; every wire is answered."""
        sample = wires[:120]
        reference = ScoringService(trained)
        expected = [_essence(reference.score_wire(w)) for w in sample]
        supervisor = ShardSupervisor.from_polygraph(
            trained,
            config=ClusterConfig(
                n_shards=1,
                backend="process",
                transport="shm",
                ring_slots=8,
                heartbeat_interval_s=5.0,
            ),
            # No verdict cache: every admitted wire crosses the ring.
            runtime_config=RuntimeConfig(cache_entries=0),
        )
        router = ClusterRouter(supervisor).start()
        try:
            verdicts = router.score_many(sample)
            assert [_essence(v) for v in verdicts] == expected
            stats = supervisor.shards["s0"].transport_stats()
            assert stats["mode"] == "shm"
            assert stats["ring_slots"] == 8
            assert stats["backpressure_waits"] > 0
            assert stats["ring_occupancy"] == 0  # all drained
            assert stats["ring_occupancy_peak"] == 8
            assert stats["zero_copy_rows"] == sum(
                1 for v in verdicts if v.accepted
            )
        finally:
            router.shutdown()

    def test_crash_mid_batch_restarts_and_reattaches_the_slab(
        self, trained, wires
    ):
        supervisor = ShardSupervisor.from_polygraph(
            trained,
            config=ClusterConfig(
                n_shards=2,
                backend="process",
                transport="shm",
                heartbeat_interval_s=0.05,
            ),
        )
        router = ClusterRouter(supervisor).start()
        try:
            slab_names = {
                shard_id: shard._slab.name
                for shard_id, shard in supervisor.shards.items()
            }
            half = len(wires) // 2
            first = router.score_many(wires[:half])
            supervisor.kill("s0")
            second = router.score_many(wires[half:])
            # Nothing is lost: the router re-routes around the corpse.
            reference = ScoringService(trained)
            expected = [_essence(reference.score_wire(w)) for w in wires]
            assert [_essence(v) for v in first + second] == expected
            deadline = time.time() + 15.0
            while time.time() < deadline and supervisor.healthy_count < 2:
                time.sleep(0.05)
            assert supervisor.healthy_count == 2
            assert supervisor.restarts("s0") == 1
            # The slab outlives the child: the restarted process
            # attached the same segment, and scoring still works.
            assert {
                shard_id: shard._slab.name
                for shard_id, shard in supervisor.shards.items()
            } == slab_names
            # Fresh session ids (the originals sit in dedup windows).
            fresh = [
                w.replace(b'{"sid":"', b'{"sid":"r2-', 1)
                for w in wires[:40]
            ]
            fresh_expected = [
                _essence(ScoringService(trained).score_wire(w))
                for w in fresh
            ]
            again = router.score_many(fresh)
            assert [_essence(v) for v in again] == fresh_expected
            assert supervisor.shards["s0"].transport_stats()["mode"] == "shm"
        finally:
            router.shutdown()

    def test_thread_and_shm_backends_agree(self, trained, wires):
        sample = wires[:100]
        outcomes = []
        for backend, transport in (("thread", "shm"), ("process", "shm")):
            supervisor = ShardSupervisor.from_polygraph(
                trained,
                config=ClusterConfig(
                    n_shards=2,
                    backend=backend,
                    transport=transport,
                    heartbeat_interval_s=5.0,
                ),
            )
            router = ClusterRouter(supervisor).start()
            try:
                outcomes.append(
                    [_essence(v) for v in router.score_many(sample)]
                )
            finally:
                router.shutdown()
        assert outcomes[0] == outcomes[1]

    def test_shm_verdicts_hold_while_the_cache_thrashes(self, trained, wires):
        """Fingerprint affinity over three shm shards whose caches are
        far smaller than the distinct fingerprints, replayed twice: rows
        are evicted and re-scored, verdicts stay the reference's."""
        replay = wires + [
            w.replace(b'{"sid":"', b'{"sid":"p2-', 1) for w in wires
        ]
        reference = ScoringService(trained)
        expected = [_essence(reference.score_wire(w)) for w in replay]
        supervisor = ShardSupervisor.from_polygraph(
            trained,
            config=ClusterConfig(
                n_shards=3, backend="process", heartbeat_interval_s=5.0
            ),
            runtime_config=RuntimeConfig(cache_entries=4),
        )
        router = ClusterRouter(
            supervisor, RouterConfig(affinity="fingerprint")
        ).start()
        try:
            verdicts = []
            for start in range(0, len(replay), 50):
                verdicts += router.score_many(replay[start : start + 50])
            assert [_essence(v) for v in verdicts] == expected
            stats = supervisor.transport_stats().values()
            held = sum(s["cache_entries"] for s in stats)
            assert held <= 12
            assert sum(s["cache_misses"] for s in stats) > 4 * held
            assert sum(s["cache_hits"] for s in stats) > 0
        finally:
            router.shutdown()

    @pytest.mark.parametrize("cause", ["create", "attach"])
    def test_slab_failure_at_start_up_raises_and_leaks_nothing(
        self, trained, monkeypatch, cause
    ):
        """No slab, no cluster: a typed error, every child reaped, every
        segment unlinked — including the shard that had already started."""
        if cause == "create":
            real_slab, created = supervisor_mod.ShmSlab, []

            def slab(*args):  # /dev/shm fills up after the first shard
                if created:
                    raise OSError(28, "No space left on device")
                created.append(real_slab(*args))
                return created[0]

            monkeypatch.setattr(supervisor_mod, "ShmSlab", slab)
            failing = "s1"
        else:
            monkeypatch.setattr(supervisor_mod, "attach_slab_views", _attach_denied)
            failing = "s0"
        segments = set(glob.glob("/dev/shm/psm_*"))
        supervisor = ShardSupervisor.from_polygraph(
            trained,
            config=ClusterConfig(
                n_shards=2, backend="process", heartbeat_interval_s=5.0
            ),
        )
        with pytest.raises(ShardError, match=f"shard {failing} cannot start"):
            supervisor.start()
        assert multiprocessing.active_children() == []
        assert set(glob.glob("/dev/shm/psm_*")) == segments
        assert supervisor._heartbeat is None
        assert all(s.transport_stats() is None for s in supervisor.shards.values())

    def test_slab_failure_at_restart_keeps_the_shard_off_the_ring(
        self, trained, wires, monkeypatch
    ):
        """The survivors answer the dead shard's arcs, every sweep
        retries, and the first sweep after the fault clears recovers."""
        reference = ScoringService(trained)
        expected = [_essence(reference.score_wire(w)) for w in wires]
        supervisor = ShardSupervisor.from_polygraph(
            trained,
            # Heartbeat parked: the test drives the sweeps.
            config=ClusterConfig(
                n_shards=2, backend="process", heartbeat_interval_s=3600.0
            ),
        )
        router = ClusterRouter(supervisor).start()
        try:
            owners = {supervisor.ring.node_for(w[8:w.find(b'"', 8)]) for w in wires}
            assert owners == {"s0", "s1"}
            verdicts = router.score_many(wires[:100])
            with monkeypatch.context() as fault:
                fault.setattr(supervisor_mod, "attach_slab_views", _attach_denied)
                supervisor.kill("s1")
                verdicts += router.score_many(wires[100:200])
                for _ in range(2):
                    supervisor.check_once()
                    assert supervisor.healthy_count == 1
                    assert "s1" not in supervisor.ring
                    assert multiprocessing.active_children() == [
                        supervisor.shards["s0"]._process
                    ]
                verdicts += router.score_many(wires[200:])
            assert not any(v.reject_reason == OVERLOADED_REASON for v in verdicts)
            assert [_essence(v) for v in verdicts] == expected
            supervisor.check_once()
            assert supervisor.healthy_count == 2
            assert supervisor.restarts("s1") == 1
            fresh = [
                w.replace(b'{"sid":"', b'{"sid":"r2-', 1) for w in wires[:60]
            ]
            routed = router.cluster_status()["router"]["routed_by_shard"]
            again = router.score_many(fresh)
            assert all(v.accepted for v in again)
            after = router.cluster_status()["router"]["routed_by_shard"]
            assert after["s1"] > routed.get("s1", 0)
        finally:
            router.shutdown()

    def test_a_started_process_cluster_owns_one_thread(self, trained):
        """Process shards have no I/O thread: only the heartbeat runs."""
        import threading

        before = set(threading.enumerate())
        supervisor = ShardSupervisor.from_polygraph(
            trained,
            config=ClusterConfig(
                n_shards=2, backend="process", heartbeat_interval_s=5.0
            ),
        ).start()
        try:
            started = set(threading.enumerate()) - before
            assert [t.name for t in started] == ["polygraph-cluster-heartbeat"]
        finally:
            supervisor.shutdown()

    def test_shm_is_the_only_transport(self, tmp_path, trained):
        from repro.cluster import ProcessShard, ThreadShard

        assert ClusterConfig(transport="shm").transport == "shm"
        with pytest.raises(ValueError):
            ClusterConfig(transport="pickle")
        path = tmp_path / "model.json"
        trained.save(path)
        with pytest.raises(TypeError):
            ProcessShard("s0", path, transport="pickle")
        for shard_type in (ThreadShard, ProcessShard):
            assert not hasattr(shard_type, "submit_wire")

    def test_transport_metrics_absent_for_thread_clusters(
        self, trained, wires
    ):
        supervisor = ShardSupervisor.from_polygraph(
            trained,
            config=ClusterConfig(n_shards=2, heartbeat_interval_s=5.0),
        )
        router = ClusterRouter(supervisor).start()
        try:
            router.score_many(wires[:20])
            text = "\n".join(router.runtime_metrics_lines())
            assert "polygraph_transport_" not in text
        finally:
            router.shutdown()


# ----------------------------------------------------------------------
# a batch names its own user-agent classes


def _collected(sid, user_agent, surface):
    """The wire of ``surface``'s fingerprint under a claimed user-agent."""
    return CollectionScript().run(surface.environment(), user_agent, sid).to_wire()


class TestBatchUaKeys:
    def test_forged_versions_never_rescore_another_rows_class(self, trained):
        """65,536 distinct classes through one shard, then a chunk that
        mixes the first class with one more new one: each row is scored
        against its own claimed release (any version parses, so the
        classes a client can name are not bounded by the calendar)."""
        chrome, firefox = BrowserProfile(Vendor.CHROME, 112), BrowserProfile(Vendor.FIREFOX, 110)
        legitimate = _collected("legit", chrome.user_agent(), chrome)
        forged = [
            _collected(f"forged-{n}", format_user_agent(Vendor.CHROME, 70_000 + n), chrome)
            for n in range(65_536)
        ]
        last = [_collected("spoof", chrome.user_agent(), firefox), forged.pop()]
        expected = [_essence(ScoringService(trained).score_wire(w)) for w in last]
        assert expected[0][2:4] == (True, 20) and not expected[1][2]
        supervisor = ShardSupervisor.from_polygraph(
            trained,
            config=ClusterConfig(
                n_shards=1, backend="process", heartbeat_interval_s=5.0
            ),
        )
        router = ClusterRouter(supervisor).start()
        try:
            assert router.score_many([legitimate])[0].accepted
            assert all(v.accepted for v in router.score_many(forged))
            assert [_essence(v) for v in router.score_many(last)] == expected
        finally:
            router.shutdown()

    @pytest.fixture(scope="class")
    def uncached(self, trained):
        """One process shard, no verdict cache: every row crosses the slab."""
        supervisor = ShardSupervisor.from_polygraph(
            trained,
            config=ClusterConfig(
                n_shards=1, backend="process", heartbeat_interval_s=5.0
            ),
            runtime_config=RuntimeConfig(cache_entries=0),
        )
        router = ClusterRouter(supervisor).start()
        yield router, supervisor.shards["s0"]._transport
        router.shutdown()

    _SURFACES = [
        BrowserProfile(Vendor.CHROME, 112),
        BrowserProfile(Vendor.FIREFOX, 110),
        BrowserProfile(Vendor.EDGE, 111),
    ]
    _CLAIMS = [p.user_agent() for p in _SURFACES] + [
        format_user_agent(Vendor.CHROME, 70_000),
        format_user_agent(Vendor.FIREFOX, 99),
    ]
    _serial = itertools.count()

    @settings(max_examples=40, deadline=None)
    @given(
        picks=st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 2)), min_size=1, max_size=40
        ),
        batch_rows=st.integers(1, 7),
    )
    def test_interleaved_classes_in_any_slab_batch_size(
        self, trained, uncached, picks, batch_rows
    ):
        router, transport = uncached
        transport.batch_rows = batch_rows
        nonce = next(self._serial)
        chunk = [
            _collected(f"i{nonce}-{n}", self._CLAIMS[claim], self._SURFACES[surface])
            for n, (claim, surface) in enumerate(picks)
        ]
        reference = ScoringService(trained)
        expected = [_essence(reference.score_wire(w)) for w in chunk]
        batches = transport.zero_copy_batches
        assert [_essence(v) for v in router.score_many(chunk)] == expected
        assert transport.zero_copy_batches - batches >= len(chunk) / batch_rows


# ----------------------------------------------------------------------
# decoded results outlive the batch, keyed by their content


def _resent(wires, prefix):
    """``wires`` again under fresh session ids (the dedup window)."""
    resent = []
    for number, wire in enumerate(wires):
        body = json.loads(wire)
        body["sid"] = f"{prefix}-{number}"
        resent.append(json.dumps(body, separators=(",", ":")).encode())
    return resent


def _content(result):
    return (
        result.ua_key,
        result.predicted_cluster,
        -1 if result.expected_cluster is None else result.expected_cluster,
        int(result.flagged),
        -1 if result.risk_factor is None else result.risk_factor,
    )


class TestResultMemo:
    def test_decoded_results_follow_the_shards_generation(
        self, trained, wires
    ):
        """Two process shards, no verdict cache, so every row crosses
        the slab.  A repeat batch reuses what was decoded, and every
        memo entry is keyed by the whole content of the result it
        holds."""
        supervisor = ShardSupervisor.from_polygraph(
            trained,
            config=ClusterConfig(
                n_shards=2, backend="process", heartbeat_interval_s=5.0
            ),
            runtime_config=RuntimeConfig(cache_entries=0),
        )
        router = ClusterRouter(supervisor).start()
        try:
            transports = [shard._transport for shard in supervisor.shards.values()]
            router.score_many(_resent(wires, "a"))
            decoded = [dict(t._results) for t in transports]
            assert all(decoded)
            router.score_many(_resent(wires, "b"))
            for transport, before in zip(transports, decoded):
                kept = before.keys() & transport._results.keys()
                assert kept and all(transport._results[key] is before[key] for key in kept)
            assert all(
                _content(result) == key
                for t in transports
                for key, result in t._results.items()
            )
        finally:
            router.shutdown()

    def test_memo_is_cleared_whole_at_its_bound(self, trained, wires, monkeypatch):
        monkeypatch.setattr("repro.cluster.transport._RESULT_MEMO_LIMIT", 4)
        supervisor = ShardSupervisor.from_polygraph(
            trained,
            config=ClusterConfig(
                n_shards=1, backend="process", heartbeat_interval_s=5.0
            ),
            runtime_config=RuntimeConfig(cache_entries=0),
        )
        router = ClusterRouter(supervisor).start()
        try:
            (shard,) = supervisor.shards.values()
            chunk = _resent(wires, "bound")
            reference = ScoringService(trained)
            assert [_essence(v) for v in router.score_many(chunk)] == [
                _essence(reference.score_wire(w)) for w in chunk
            ]
            assert 0 < len(shard._transport._results) <= 4
        finally:
            router.shutdown()
