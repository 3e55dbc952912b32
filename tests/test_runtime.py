"""Unit tests for the runtime building blocks: stats, cache, pool."""

import threading

import pytest

from repro.runtime.cache import VerdictCache, quantize_vector
from repro.runtime.pool import Overloaded, WorkerPool, overloaded_verdict
from repro.runtime.stats import RuntimeStats, percentile
from repro.service.scoring import Verdict


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
