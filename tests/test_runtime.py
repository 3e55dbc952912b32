"""Unit tests for the runtime building blocks: stats, cache, ingest."""

import dataclasses
import itertools
import json
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.browsers.profiles import BrowserProfile
from repro.browsers.useragent import Vendor, format_user_agent
from repro.fingerprint.script import CollectionScript
from repro.runtime import fastingest
from repro.runtime.cache import VerdictCache
from repro.runtime.fastingest import WireIngest
from repro.runtime.stats import RuntimeStats, percentile
from tests.exposition_check import collected
from tests.oracle import HOSTILE_SHAPES, POISON_BODIES, check, collect_wires, mutations


def _counter(cache, name):
    """A cache counter as ``/metrics`` reads it."""
    cache.sync_stats()
    return cache.stats.counter(f"cache_{name}")


class FakeClock:
    """Manually-advanced monotonic clock."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 50) == 0.0

    def test_nearest_rank(self):
        data = [10.0, 20.0, 30.0, 40.0]
        assert percentile(data, 50) == 20.0
        assert percentile(data, 99) == 40.0
        assert percentile(data, 0) == 10.0
        assert percentile(data, 100) == 40.0

    def test_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0


class TestRuntimeStats:
    def test_counters(self):
        stats = RuntimeStats()
        stats.incr("x")
        stats.incr("x", 4)
        assert stats.counter("x") == 5
        assert stats.counter("missing") == 0
        stats.set_counter("x", 2)
        assert stats.counter("x") == 2

    def test_gauges_track_peak(self):
        stats = RuntimeStats()
        stats.set_gauge("depth", 3)
        stats.set_gauge("depth", 9)
        stats.set_gauge("depth", 1)
        reported = collected(stats)
        assert reported["polygraph_runtime_depth"] == 1
        assert reported["polygraph_runtime_depth_peak"] == 9

    def test_batch_distribution(self):
        stats = RuntimeStats()
        for size in (1, 4, 16):
            stats.observe_batch(size)
        assert stats.counter("batches_total") == 3
        assert stats.counter("batched_requests_total") == 21
        reported = collected(stats)
        assert reported['polygraph_runtime_batch_size{quantile="0.99"}'] == 16
        assert reported["polygraph_runtime_batch_size_max"] == 16

    def test_stage_latency_percentiles(self):
        stats = RuntimeStats()
        for ms in (1.0, 2.0, 3.0, 100.0):
            stats.observe_stage("model", ms)
        assert stats.stage_percentile("model", 50) == 2.0
        assert stats.stage_percentile("model", 99) == 100.0
        reported = collected(stats)
        assert reported['polygraph_runtime_stage_latency_ms{stage="model",quantile="0.5"}'] == 2.0

    def test_reservoir_bounds_observations(self):
        stats = RuntimeStats(reservoir=4)
        for ms in range(100):
            stats.observe_stage("total", float(ms))
        assert stats.stage_percentile("total", 0) == 96.0

    def test_cache_hit_rate(self):
        stats = RuntimeStats()
        assert stats.cache_hit_rate == 0.0
        stats.set_counter("cache_hits", 3)
        stats.set_counter("cache_misses", 1)
        assert stats.cache_hit_rate == 0.75

    def test_collect(self):
        stats = RuntimeStats()
        stats.incr("requests_total", 7)
        stats.set_gauge("queue_depth", 2)
        stats.observe_batch(8)
        stats.observe_stage("model", 1.5)
        reported = collected(stats)
        assert reported["polygraph_runtime_requests_total"] == 7
        assert reported["polygraph_runtime_queue_depth"] == 2
        assert reported["polygraph_runtime_queue_depth_peak"] == 2
        assert reported['polygraph_runtime_batch_size{quantile="0.5"}'] == 8
        for phi in ("0.5", "0.9", "0.99"):
            key = f'polygraph_runtime_stage_latency_ms{{stage="model",quantile="{phi}"}}'
            assert reported[key] == 1.5
        assert reported["polygraph_runtime_cache_hit_rate"] == 0.0

    def test_invalid_reservoir_rejected(self):
        with pytest.raises(ValueError):
            RuntimeStats(reservoir=0)


class TestVerdictCache:
    def test_make_key_reuses_int_tuple(self):
        cache = VerdictCache()
        values = (1, 2, 3)
        key = cache.make_key(values, "chrome-112")
        assert key == ("chrome-112", (1, 2, 3))
        assert key[1] is values  # the ingest tuple is reused, no copy

    def test_hit_and_miss_counters(self):
        cache = VerdictCache()
        key = cache.make_key((1, 2), "chrome-112")
        assert cache.get(key) is None
        assert cache.put(key, "verdict")
        assert cache.get(key) == "verdict"
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_lru_eviction_under_pressure(self):
        cache = VerdictCache(max_entries=2, ttl_seconds=None)
        a, b, c = (("ua", (i,)) for i in range(3))
        cache.put(a, "A")
        cache.put(b, "B")
        assert cache.get(a) == "A"  # touch a: b becomes LRU
        cache.put(c, "C")
        assert _counter(cache, "evictions") == 1
        assert cache.get(b) is None  # evicted
        assert cache.get(a) == "A"
        assert cache.get(c) == "C"
        assert len(cache) == 2

    def test_ttl_expiry(self):
        clock = FakeClock()
        cache = VerdictCache(ttl_seconds=10.0, clock=clock)
        key = ("ua", (1,))
        cache.put(key, "V")
        clock.advance(9.0)
        assert cache.get(key) == "V"
        clock.advance(2.0)
        assert cache.get(key) is None
        assert cache.expirations == 1
        assert key not in cache

    def test_ttl_and_lru_pressure_together(self):
        clock = FakeClock()
        cache = VerdictCache(max_entries=3, ttl_seconds=5.0, clock=clock)
        for i in range(3):
            cache.put(("ua", (i,)), i)
        clock.advance(6.0)
        for i in range(3, 6):
            cache.put(("ua", (i,)), i)
        # Old entries were evicted by LRU pressure before their probe.
        assert len(cache) == 3
        assert cache.get(("ua", (4,))) == 4
        assert cache.get(("ua", (0,))) is None

    def test_invalidate_clears_and_pins_generation(self):
        cache = VerdictCache()
        cache.put(("ua", (1,)), "V")
        assert cache.invalidate(generation=2) == 1
        assert len(cache) == 0
        assert cache.model_generation == 2

    def test_stale_generation_put_refused(self):
        cache = VerdictCache()
        cache.set_model_generation(2)
        assert not cache.put(("ua", (1,)), "old", generation=1)
        assert _counter(cache, "stale_drops") == 1
        assert len(cache) == 0
        assert cache.put(("ua", (1,)), "new", generation=2)

    def test_sync_stats_mirrors_counters(self):
        stats = RuntimeStats()
        cache = VerdictCache(stats=stats)
        key = ("ua", (1,))
        cache.get(key)
        cache.put(key, "V")
        cache.get(key)
        cache.sync_stats()
        assert stats.counter("cache_hits") == 1
        assert stats.counter("cache_misses") == 1
        assert stats.cache_hit_rate == 0.5

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            VerdictCache(max_entries=0)
        with pytest.raises(ValueError):
            VerdictCache(ttl_seconds=0.0)


# ----------------------------------------------------------------------
# put_many: one model call's results, inserted as a put per key would


class TestPutManyEqualsAPutLoop:
    _keys = st.lists(st.one_of(st.none(), st.integers(0, 11)), max_size=24)
    # (keys, seconds to advance first, swap the model first, put as stale)
    _call = st.tuples(
        _keys, st.sampled_from([0.0, 3.0, 11.0]), st.booleans(), st.booleans()
    )

    @settings(max_examples=200, deadline=None)
    @given(
        calls=st.lists(_call, min_size=1, max_size=6),
        capacity=st.sampled_from([1, 4, 8192]),
        ttl=st.sampled_from([None, 10.0]),
    )
    def test_contents_order_and_counters(self, calls, capacity, ttl):
        """Nones, in-batch duplicates and re-inserted keys included: the
        entries (LRU order, timestamps, last value put) and counters of
        the batch insert are the per-key loop's."""
        clock = FakeClock()
        batched = VerdictCache(max_entries=capacity, ttl_seconds=ttl, clock=clock)
        looped = VerdictCache(max_entries=capacity, ttl_seconds=ttl, clock=clock)
        generation = 1
        for cache in (batched, looped):
            cache.set_model_generation(generation)
        serial = itertools.count()
        for keys, seconds, swap, stale in calls:
            clock.advance(seconds)
            if swap:
                generation += 1
                for cache in (batched, looped):
                    cache.invalidate(generation)
            keys = [None if k is None else ("ua", (k,)) for k in keys]
            values = [next(serial) for _ in keys]
            put_as = generation - 1 if stale else generation
            accepted = batched.put_many(keys, values, put_as)
            assert accepted is (not stale)
            for key, value in zip(keys, values):
                if key is not None:
                    assert looped.put(key, value, generation=put_as) is accepted
            assert list(batched._entries.items()) == list(looped._entries.items())
            for name in ("evictions", "stale_drops"):
                assert _counter(batched, name) == _counter(looped, name)
            assert len(batched) <= capacity
            # Probing moves LRU order and expires: keep both in step.
            probe = [("ua", (k,)) for k in range(0, 12, 3)]
            assert batched.get_many(probe) == [looped.get(k) for k in probe]

    def test_refused_call_counts_a_drop_per_key(self):
        cache = VerdictCache()
        cache.set_model_generation(2)
        keys = [("ua", (1,)), None, ("ua", (2,)), ("ua", (1,))]
        assert not cache.put_many(keys, "abcd", generation=1)
        assert _counter(cache, "stale_drops") == 3
        assert len(cache) == 0


# ----------------------------------------------------------------------
# the slice read of a canonical first sight, against the full parse


_CHROME = BrowserProfile(Vendor.CHROME, 112)
_PAYLOAD = CollectionScript().run(_CHROME.environment(), _CHROME.user_agent(), "s")


def _canonical(sid, payload=_PAYLOAD):
    return dataclasses.replace(payload, session_id=sid).to_wire()


class TestSliceReadEqualsFullParse:
    """The runtime's slice read admits what the per-request full parse
    admits, and answers what it answers: the oracle's traces of byte
    edits, with the same fields, quarantine and dedup window."""

    def test_cold_then_warm_match_the_full_parse_twin(self, oracle_world):
        """Edits of every row's wire, first sight, then the same edits
        again under fresh sids with whatever either side memoized."""
        picks = [("mutated", n) for n in range(0, 48 * 4000, 97)]
        check(oracle_world, collects=picks + picks, cuts=[64, 1, 200])

    def test_every_single_mutation_of_a_canonical_wire(self, oracle_world):
        """Each token inserted at, written over and cut out of every
        position of one row's wire: the one shape the slices admit."""
        (wire,) = collect_wires(oracle_world.rows, [("row", 0)])
        picks = [("mutated", 48 * m) for m in range(mutations(wire + b"99"))]
        reference = check(oracle_world, collects=picks, cuts=[256])["reference"]
        admitted = reference.service.validator.accepted_count
        assert 1000 < admitted < len(picks)  # mostly hostile, not only

    def test_every_hostile_shape_and_poison_body_alone(self, oracle_world):
        picks = [("shape", n) for n in range(len(HOSTILE_SHAPES))]
        picks += [("poison", n) for n in range(len(POISON_BODIES))]
        check(oracle_world, collects=picks * 2, cuts=[1])

    @staticmethod
    def _count_full_parses(monkeypatch):
        calls = []

        def loads(text):
            calls.append(text)
            return json.loads(text)

        monkeypatch.setattr(fastingest, "json", types.SimpleNamespace(loads=loads))
        return calls

    def test_a_canonical_wire_never_reaches_the_full_parser(self, monkeypatch):
        full_parses = self._count_full_parses(monkeypatch)
        ingest = WireIngest()
        payload = _PAYLOAD
        assert ingest.ingest_many([_canonical("first"), _canonical("again")]) == [
            (sid, payload.user_agent, payload.values, (), "chrome-112")
            for sid in ("first", "again")
        ]
        assert full_parses == []

    @pytest.mark.parametrize("shape", ["globals", "reordered", "floats"])
    def test_what_the_slices_cannot_vouch_for_takes_the_full_parse(
        self, monkeypatch, shape
    ):
        document = json.loads(_canonical("sid-1"))
        if shape == "globals":
            document["g"] = ["callPhantom"]
        elif shape == "reordered":
            document = {key: document[key] for key in ("sid", "f", "ua")}
        else:
            document["f"] = [float(value) for value in document["f"]]
        wire = json.dumps(document, separators=(",", ":")).encode("utf-8")
        full_parses = self._count_full_parses(monkeypatch)
        (fields,) = WireIngest().ingest_many([wire])
        assert len(full_parses) == 1
        assert fields[2] == _PAYLOAD.values and fields[4] == "chrome-112"
        assert fields[3] == (("callPhantom",) if shape == "globals" else ())

    def test_the_ua_slice_memo_is_bounded_and_cleared_with_the_others(
        self, monkeypatch
    ):
        monkeypatch.setattr(fastingest, "_UA_MEMO_LIMIT", 4)
        ingest = WireIngest()
        for version in range(100, 111):
            payload = dataclasses.replace(
                _PAYLOAD, user_agent=format_user_agent(Vendor.CHROME, version)
            )
            (fields,) = ingest.ingest_many([_canonical(f"v{version}", payload)])
            assert fields[4] == f"chrome-{version}"
            assert 1 <= len(ingest._ua_slices) <= 4
        assert ingest._ua_class and ingest._wire_memo
        ingest.clear_ua_memo()
        assert not (ingest._ua_class or ingest._ua_slices or ingest._wire_memo)

    def test_the_wire_memo_is_cleared_whole_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(fastingest, "_WIRE_MEMO_LIMIT", 4)
        ingest = WireIngest()
        tails = []
        for version in range(100, 106):
            payload = dataclasses.replace(
                _PAYLOAD, user_agent=format_user_agent(Vendor.CHROME, version)
            )
            wire = _canonical(f"w{version}", payload)
            (fields,) = ingest.ingest_many([wire])
            assert fields[4] == f"chrome-{version}"
            tails.append(wire[wire.index(b'"', 8) :])
            if len(tails) <= 4:
                assert list(ingest._wire_memo) == tails
        # The fifth tail found the memo full: it starts a new one alone.
        assert list(ingest._wire_memo) == tails[4:]
