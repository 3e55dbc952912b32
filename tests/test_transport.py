"""Partitions behind the router: the bulk paths, the cache, the classes.

The contract under test: the bulk paths every partition runs
(``ingest_many``, ``get_many``) are observably identical to their
per-wire equivalents; partitions' verdicts hold while their verdict
caches thrash; a batch scores each row against the release it claims,
however many classes a client names; and a cluster starts no thread,
process or mapping of its own (``--shard-backend`` and ``--transport``
are shims that accept their one value).
"""

from __future__ import annotations

import glob
import itertools
import json
import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.browsers.profiles import BrowserProfile
from repro.browsers.useragent import Vendor, format_user_agent, parse_user_agent
from repro.cluster import ClusterConfig, ClusterRouter, RouterConfig, ShardSupervisor
from repro.fingerprint.script import CollectionScript
from repro.runtime.cache import VerdictCache
from repro.runtime.fastingest import WireIngest
from repro.runtime.service import RuntimeConfig
from repro.service.aingest import AsyncIngestServer
from repro.service.api import CollectionApp
from repro.service.ingest import PayloadValidator, RejectReason
from repro.service.scoring import ScoringService
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
# bulk paths: parity with the per-wire equivalents


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
# partitions


class TestTransportFailureModes:
    def test_shm_verdicts_hold_while_the_cache_thrashes(self, trained, wires):
        """Fingerprint affinity over three shards whose caches are far
        smaller than the distinct fingerprints, replayed twice: rows are
        evicted and re-scored, verdicts stay the reference's."""
        replay = wires + [
            w.replace(b'{"sid":"', b'{"sid":"p2-', 1) for w in wires
        ]
        reference = ScoringService(trained)
        expected = [_essence(reference.score_wire(w)) for w in replay]
        supervisor = ShardSupervisor(
            trained,
            config=ClusterConfig(n_shards=3),
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

    def test_a_started_cluster_owns_no_thread(self, trained):
        """No heartbeat, no I/O thread: partitions are plain objects."""
        before = set(threading.enumerate())
        supervisor = ShardSupervisor(trained, config=ClusterConfig(n_shards=2)).start()
        try:
            assert set(threading.enumerate()) - before == set()
        finally:
            supervisor.shutdown()

    def test_shm_is_the_only_transport(self):
        assert ClusterConfig(transport="shm").transport == "shm"
        assert ClusterConfig(backend="process").backend == "process"
        for field, value in (("transport", "pickle"), ("backend", "thread")):
            with pytest.raises(ValueError):
                ClusterConfig(**{field: value})


# ----------------------------------------------------------------------
# the process tree of a started cluster


_CLUSTER_SCRIPT = """
import json, sys, time
from repro.cluster import ClusterConfig, ShardSupervisor
config = ClusterConfig(n_shards=2, backend="process", transport="shm")
supervisor = ShardSupervisor(sys.argv[1], config=config).start()
print(json.dumps(sorted(supervisor.shards)), flush=True)
time.sleep(120)
"""


def _parent_of(pid):
    """``pid``'s parent, or ``None`` once it has exited (a zombie too)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    state, parent = stat[stat.rindex(")") + 2 :].split()[:2]
    return None if state in ("Z", "X") else int(parent)


def _descendants(root):
    """Every live process below ``root``, read from ``/proc``."""
    parent_of = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            parent = _parent_of(int(entry.name))
            if parent is not None:
                parent_of[int(entry.name)] = parent
    tree, frontier = [], {root}
    while frontier:
        frontier = {pid for pid, parent in parent_of.items() if parent in frontier}
        tree.extend(frontier)
    return sorted(tree)


@pytest.fixture()
def cluster_process(trained, tmp_path):
    """A fresh interpreter that has started a 2-shard cluster with the
    benchmark's backend and transport values: ``(process, shard ids)``;
    killed at the end if still running."""
    model = tmp_path / "model.json"
    trained.save(model)
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    process = subprocess.Popen(
        [sys.executable, "-c", _CLUSTER_SCRIPT, str(model)],
        stdout=subprocess.PIPE, env=env,
    )
    try:
        yield process, json.loads(process.stdout.readline())
    finally:
        process.kill()
        process.wait(10.0)
        process.stdout.close()


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
class TestProcessTree:
    def test_a_cluster_holds_its_shards_and_nothing_else(self, cluster_process):
        """The shards are partitions of the one process: no child, no
        resource tracker and no ``/dev/shm`` segment."""
        process, shards = cluster_process
        assert shards == ["s0", "s1"]
        assert _descendants(process.pid) == []
        assert "/dev/shm/" not in Path(f"/proc/{process.pid}/maps").read_text()

    def test_the_shards_exit_when_the_router_is_killed(self, cluster_process):
        """SIGKILL leaves no stop message and no cleanup: the shards go
        with the process, and no process or segment of it outlives it."""
        process, _ = cluster_process
        segments = set(glob.glob("/dev/shm/psm_*"))
        below = _descendants(process.pid)
        process.kill()
        process.wait(10.0)
        assert _parent_of(process.pid) is None
        assert [pid for pid in below if _parent_of(pid)] == []
        assert set(glob.glob("/dev/shm/psm_*")) <= segments


class TestInheritedDescriptors:
    def test_a_drained_port_refuses_while_a_restarted_shard_lives(self, trained):
        """A cluster started again behind a front end forks nothing, so
        nothing keeps the front end's descriptors: once it closes, the
        port refuses while the partitions still score."""
        supervisor = ShardSupervisor(trained, config=ClusterConfig(n_shards=2))
        router = ClusterRouter(supervisor).start()
        wire = CollectionScript().run(
            BrowserProfile(Vendor.CHROME, 112).environment(),
            BrowserProfile(Vendor.CHROME, 112).user_agent(),
            "drained",
        ).to_wire()
        try:
            with AsyncIngestServer(CollectionApp(router), port=0) as server:
                port = server.port
                router.start()
            assert router.score_many([wire])[0].accepted
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(("127.0.0.1", port), timeout=5.0).close()
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
        router = ClusterRouter(ShardSupervisor(trained, config=ClusterConfig(n_shards=1)))
        try:
            assert router.score_many([legitimate])[0].accepted
            assert all(v.accepted for v in router.score_many(forged))
            assert [_essence(v) for v in router.score_many(last)] == expected
        finally:
            router.shutdown()

    @pytest.fixture(scope="class")
    def uncached(self, trained):
        """One shard, no verdict cache: every row is a model call's."""
        router = ClusterRouter(
            ShardSupervisor(
                trained,
                config=ClusterConfig(n_shards=1),
                runtime_config=RuntimeConfig(cache_entries=0),
            )
        )
        yield router
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
        """Classes interleaved in batches of any size: one model call
        per batch, each row against its own class."""
        nonce = next(self._serial)
        chunk = [
            _collected(f"i{nonce}-{n}", self._CLAIMS[claim], self._SURFACES[surface])
            for n, (claim, surface) in enumerate(picks)
        ]
        reference = ScoringService(trained)
        expected = [_essence(reference.score_wire(w)) for w in chunk]
        got = []
        for begin in range(0, len(chunk), batch_rows):
            got += uncached.score_many(chunk[begin : begin + batch_rows])
        assert [_essence(v) for v in got] == expected
