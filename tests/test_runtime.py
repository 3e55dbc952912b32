"""Unit tests for the runtime building blocks: stats, cache, ingest, pool."""

import dataclasses
import itertools
import json
import re
import threading
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.browsers.profiles import BrowserProfile
from repro.browsers.useragent import Vendor, format_user_agent
from repro.fingerprint.script import CollectionScript
from repro.runtime import fastingest
from repro.runtime.cache import VerdictCache, quantize_vector
from repro.runtime.fastingest import WireIngest
from repro.runtime.pool import Overloaded, WorkerPool, overloaded_verdict
from repro.runtime.stats import RuntimeStats, percentile
from repro.service.scoring import Verdict
from repro.traffic.events import EventType, SessionEvent
from tests.event_shapes import HOSTILE_SHAPES, POISON_BODIES


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
        assert stats.gauge("depth") == 1
        assert stats.peak("depth") == 9

    def test_batch_distribution(self):
        stats = RuntimeStats()
        for size in (1, 4, 16):
            stats.observe_batch(size)
        assert stats.counter("batches_total") == 3
        assert stats.counter("batched_requests_total") == 21
        assert stats.mean_batch_size == 7.0
        assert stats.batch_size_percentile(99) == 16

    def test_stage_latency_percentiles(self):
        stats = RuntimeStats()
        for ms in (1.0, 2.0, 3.0, 100.0):
            stats.observe_stage("model", ms)
        assert stats.stage_percentile("model", 50) == 2.0
        assert stats.stage_percentile("model", 99) == 100.0
        assert stats.stages() == ["model"]

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

    def test_render_prometheus(self):
        stats = RuntimeStats()
        stats.incr("requests_total", 7)
        stats.set_gauge("queue_depth", 2)
        stats.observe_batch(8)
        stats.observe_stage("model", 1.5)
        text = "\n".join(stats.render_prometheus())
        assert "polygraph_runtime_requests_total 7" in text
        assert "polygraph_runtime_queue_depth 2" in text
        assert "polygraph_runtime_queue_depth_peak 2" in text
        assert 'polygraph_runtime_batch_size{quantile="p50"} 8' in text
        assert 'stage="model"' in text
        assert "polygraph_runtime_cache_hit_rate" in text

    def test_invalid_reservoir_rejected(self):
        with pytest.raises(ValueError):
            RuntimeStats(reservoir=0)


class TestQuantize:
    def test_identity_step(self):
        assert quantize_vector((1, 2, 3)) == (1, 2, 3)

    def test_coarser_step_buckets(self):
        assert quantize_vector((0, 7, 13, 19), step=10) == (0, 0, 10, 10)


class TestVerdictCache:
    def test_make_key_reuses_int_tuple(self):
        cache = VerdictCache()
        values = (1, 2, 3)
        key = cache.make_key(values, "chrome-112")
        assert key == ("chrome-112", (1, 2, 3))
        assert key[1] is values  # identity quantization, no copy

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
        assert cache.evictions == 1
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
        assert cache.stale_drops == 1
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


class _Request:
    """Minimal pool item."""

    def __init__(self, name: str) -> None:
        self.name = name


class TestOverloaded:
    def test_typed_shed_verdict(self):
        verdict = overloaded_verdict("s-1", 0.5)
        assert isinstance(verdict, Overloaded)
        assert isinstance(verdict, Verdict)
        assert not verdict.accepted
        assert verdict.reject_reason == "overloaded"
        assert verdict.session_id == "s-1"


class TestWorkerPool:
    def test_handles_everything_submitted(self):
        handled = []
        pool = WorkerPool(handled.append, n_workers=2, queue_capacity=64)
        pool.start()
        items = [_Request(str(i)) for i in range(32)]
        assert all(pool.submit(item) for item in items)
        pool.shutdown(drain=True)
        assert len(handled) == 32
        assert not pool.is_running

    def test_backpressure_sheds_when_full(self):
        release = threading.Event()
        entered = threading.Event()

        def slow(item):
            entered.set()
            release.wait(timeout=5.0)

        stats = RuntimeStats()
        pool = WorkerPool(slow, n_workers=1, queue_capacity=1, stats=stats)
        pool.start()
        assert pool.submit(_Request("in-flight"))
        assert entered.wait(timeout=5.0)  # worker is now blocked
        assert pool.submit(_Request("queued"))
        shed = sum(1 for _ in range(3) if not pool.submit(_Request("extra")))
        assert shed == 3  # queue full: everything beyond capacity shed
        assert stats.counter("requests_shed") == 3
        release.set()
        pool.shutdown(drain=True)

    def test_drain_on_shutdown_leaves_nothing_unanswered(self):
        release = threading.Event()
        handled = []

        def slow(item):
            release.wait(timeout=5.0)
            handled.append(item)

        pool = WorkerPool(slow, n_workers=1, queue_capacity=16)
        pool.start()
        for i in range(5):
            assert pool.submit(_Request(str(i)))
        release.set()
        pool.shutdown(drain=True)
        assert len(handled) == 5
        assert pool.queue_depth == 0

    def test_nondrain_shutdown_discards_backlog(self):
        release = threading.Event()
        entered = threading.Event()
        handled = []

        def slow(item):
            entered.set()
            release.wait(timeout=5.0)
            handled.append(item)

        pool = WorkerPool(slow, n_workers=1, queue_capacity=16)
        pool.start()
        first = _Request("in-flight")
        pool.submit(first)
        assert entered.wait(timeout=5.0)
        for name in ("q1", "q2"):
            assert pool.submit(_Request(name))
        stopper = threading.Thread(
            target=pool.shutdown, kwargs={"drain": False}, daemon=True
        )
        stopper.start()
        # shutdown empties the queue before it waits for the worker:
        # release the worker only once the backlog is out of its reach.
        while stopper.is_alive() and any(
            isinstance(item, _Request) for item in list(pool._queue.queue)
        ):
            stopper.join(timeout=0.01)
        release.set()
        stopper.join(timeout=5.0)
        assert not stopper.is_alive()
        assert handled == [first]
        assert pool.queue_depth == 0

    def test_submit_after_shutdown_sheds(self):
        pool = WorkerPool(lambda item: None, n_workers=1)
        pool.start()
        pool.shutdown(drain=True)
        assert not pool.submit(_Request("late"))

    def test_worker_survives_a_handler_exception(self):
        handled = []

        def boom_once(item):
            if item.name == "bad":
                raise ValueError("bad item")
            handled.append(item.name)

        pool = WorkerPool(boom_once, n_workers=1)
        pool.start()
        for name in ("bad", "good"):
            assert pool.submit(_Request(name))
        pool.shutdown(drain=True)
        assert handled == ["good"]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(lambda item: None, n_workers=0)
        with pytest.raises(ValueError):
            WorkerPool(lambda item: None, queue_capacity=0)


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
            assert batched.evictions == looped.evictions
            assert batched.stale_drops == looped.stale_drops
            assert len(batched) <= capacity
            # Probing moves LRU order and expires: keep both in step.
            probe = [("ua", (k,)) for k in range(0, 12, 3)]
            assert batched.get_many(probe) == [looped.get(k) for k in probe]

    def test_refused_call_counts_a_drop_per_key(self):
        cache = VerdictCache()
        cache.set_model_generation(2)
        keys = [("ua", (1,)), None, ("ua", (2,)), ("ua", (1,))]
        assert not cache.put_many(keys, "abcd", generation=1)
        assert cache.stale_drops == 3
        assert len(cache) == 0


# ----------------------------------------------------------------------
# the slice read of a canonical first sight, against the full parse


class _FullParseOnly(WireIngest):
    """The twin: the slice path answers "take the full parse", always."""

    __slots__ = ()

    def _read_canonical(self, raw_sid, tail):
        return None


_SID_MARK = b"@@"  # replaced per pass, so the warm pass brings fresh sids

_NATURAL = [
    CollectionScript().run(profile.environment(), profile.user_agent(), "s")
    for profile in (
        BrowserProfile(Vendor.CHROME, 112), BrowserProfile(Vendor.CHROME, 70000),
        BrowserProfile(Vendor.FIREFOX, 110), BrowserProfile(Vendor.EDGE, 111),
        BrowserProfile(Vendor.EDGE, 18),
    )
]
_STREAM = SessionEvent(
    "@@e", EventType.PAGE_LOAD, 0, 12.5, _NATURAL[0].user_agent, _NATURAL[0].values
)
_EVENT_MEMBERS = re.compile(rb'"ev":"[a-z_]+","seq":\d+,"ts":[0-9.]+,')

_MODES = ("insert", "overwrite", "delete")
_MUTATIONS = (
    b'"', b"\\", b",", b"]", b"[", b"}", b"{", b" ", b"-", b"0", b"007",
    b"10001", b"1e3", b"1.0", b"\xff", b"\xc3\xa9", b"\x00", b"\x7f",
    b'"sid":"x",', b',"g":[]', b'","ua":"', b'","f":[', b"]}",
    b"\xed\xa0\x80", b"\xef\xbb\xbf",
)


def _mutate(wire, token, at, mode):
    """``token`` inserted at, written over, or its length cut out of ``at``."""
    keep_from = at if mode == "insert" else at + len(token)
    return wire[:at] + (b"" if mode == "delete" else token) + wire[keep_from:]


@st.composite
def _natural_wire(draw):
    payload = draw(st.sampled_from(_NATURAL))
    values = list(payload.values)
    for position, value in draw(
        st.lists(
            st.tuples(st.integers(0, 27), st.sampled_from([0, 10_000, 10_001, -1, 7])),
            max_size=2,
        )
    ):
        values[position] = value
    arity = draw(st.sampled_from([28, 28, 28, 27, 29]))
    values = (values + [1])[:arity]
    payload = dataclasses.replace(
        payload,
        session_id=draw(
            st.sampled_from(["", "@@", "@@", "é@@", "@@☃", "x" * 62 + "@@", "x" * 63 + "@@"])
        ),
        user_agent=payload.user_agent + draw(st.sampled_from(["", "", " é", ' "q"'])),
        values=tuple(values),
        suspicious_globals=draw(
            st.sampled_from([(), (), ("callPhantom",), ("g",) * 40])
        ),
    )
    if draw(st.booleans()):
        return payload.to_wire()  # non-ASCII goes out \u-escaped
    return json.dumps(
        json.loads(payload.to_wire()), separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def _collect_core(shape):
    """A hostile envelope shape cut down to its ``/collect`` members,
    by bytes — where the shape moved them the envelope goes as it is."""
    return _EVENT_MEMBERS.sub(b"", HOSTILE_SHAPES[shape](_STREAM), count=1)


_LANDMARKS = (b'{"sid":"', b'","ua":"', b'","f":[', b"]", b"}")


def _cut_points(wire):
    """Where the slices are cut: both ends of every landmark present."""
    found = [(wire.find(mark), len(mark)) for mark in _LANDMARKS]
    return [at + step for at, size in found if at >= 0 for step in (0, size)] or [0]


@st.composite
def _mutated(draw, wires):
    wire = draw(wires)
    for token, at, mode in draw(
        st.lists(
            st.tuples(
                st.sampled_from(_MUTATIONS),
                # Anywhere, or within two bytes of a cut point.
                st.one_of(
                    st.integers(0, 1023),
                    st.tuples(st.integers(0, 9), st.integers(-2, 2)),
                ),
                st.sampled_from(_MODES),
            ),
            max_size=3,
        )
    ):
        if isinstance(at, tuple):
            cuts = _cut_points(wire)
            at = cuts[at[0] % len(cuts)] + at[1]
        wire = _mutate(wire, token, at % (len(wire) + 1), mode)
    return wire


_ingest_wires = st.lists(
    _mutated(
        st.one_of(
            _natural_wire(),
            _natural_wire(),
            st.sampled_from(sorted(HOSTILE_SHAPES)).map(_collect_core),
            st.sampled_from(sorted(POISON_BODIES.values())),
        )
    ),
    min_size=1,
    max_size=12,
)


def _ingest_state(ingest):
    validator = ingest.validator
    _, ids, seen = validator.dedup_state()
    return (
        validator.quarantine.entries(),
        ingest.requests_total,
        ingest.rejected_count,
        validator.accepted_count,
        list(ids),
        set(seen),
    )


def _canonical(sid, payload=_NATURAL[0]):
    return dataclasses.replace(payload, session_id=sid).to_wire()


class TestSliceReadEqualsFullParse:
    @settings(max_examples=400, deadline=None)
    @given(wires=_ingest_wires)
    def test_cold_then_warm_match_the_full_parse_twin(self, wires):
        """Same fields, same quarantine entries in order, same counters
        and dedup window — first sight, then again under fresh sids with
        whatever either side memoized."""
        subject, twin = WireIngest(), _FullParseOnly()
        for nonce in (b"c-", b"w-"):
            batch = [wire.replace(_SID_MARK, nonce) for wire in wires]
            assert subject.ingest_many(batch) == twin.ingest_many(batch)
            assert _ingest_state(subject) == _ingest_state(twin)

    def test_every_single_mutation_of_a_canonical_wire(self):
        """Each token inserted at, written over and cut out of every
        position of the one shape the slices admit."""
        wire = _canonical("@@")
        mutants = [
            _mutate(wire, token, at, mode)
            for token in _MUTATIONS
            for at in range(len(wire) + 1)
            for mode in _MODES
        ]
        admitted = 0
        for mutant in mutants:
            # A pair per mutant: every one of them is a first sight.
            subject, twin = WireIngest(), _FullParseOnly()
            for nonce in (b"c-", b"w-"):
                batch = [mutant.replace(_SID_MARK, nonce)]
                assert subject.ingest_many(batch) == twin.ingest_many(batch), mutant
                assert _ingest_state(subject) == _ingest_state(twin), mutant
            admitted += subject.validator.accepted_count
        assert 1000 < admitted < len(mutants)  # mostly hostile, not only

    def test_every_hostile_shape_and_poison_body_alone(self):
        bodies = [_collect_core(shape) for shape in sorted(HOSTILE_SHAPES)]
        bodies += POISON_BODIES.values()
        subject, twin = WireIngest(), _FullParseOnly()
        for _ in range(2):
            assert subject.ingest_many(bodies) == twin.ingest_many(bodies)
            assert _ingest_state(subject) == _ingest_state(twin)

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
        payload = _NATURAL[0]
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
        assert fields[2] == _NATURAL[0].values and fields[4] == "chrome-112"
        assert fields[3] == (("callPhantom",) if shape == "globals" else ())

    def test_the_ua_slice_memo_is_bounded_and_cleared_with_the_others(
        self, monkeypatch
    ):
        monkeypatch.setattr(fastingest, "_UA_MEMO_LIMIT", 4)
        ingest = WireIngest()
        for version in range(100, 111):
            payload = dataclasses.replace(
                _NATURAL[0], user_agent=format_user_agent(Vendor.CHROME, version)
            )
            (fields,) = ingest.ingest_many([_canonical(f"v{version}", payload)])
            assert fields[4] == f"chrome-{version}"
            assert 1 <= len(ingest._ua_slices) <= 4
        assert ingest._ua_class and ingest._wire_memo
        ingest.clear_ua_memo()
        assert not (ingest._ua_class or ingest._ua_slices or ingest._wire_memo)
