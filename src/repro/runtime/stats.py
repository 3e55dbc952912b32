"""Runtime metrics registry.

One thread-safe registry for everything the high-throughput scoring
runtime wants to observe about itself: monotonic counters (requests,
cache hits, model calls, rows the shadow scorer shed), gauges with
peak tracking (``queue_depth``: rows pending in the rollout's shadow
scorer, set per mirrored batch), the distribution of rows per model call, and
per-stage latency percentiles over a bounded reservoir.  The registry
reports into ``/metrics`` next to the scoring counters
(:meth:`RuntimeStats.collect`), so one scrape shows how wide the model
calls are and whether the verdict cache is earning its memory.

Latency reservoirs are bounded deques: old observations fall off, so
the percentiles track recent behaviour rather than the whole process
lifetime (what an operator staring at a dashboard wants).
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Deque, Dict, Sequence

__all__ = ["RuntimeStats", "percentile"]

# (φ, percentile) of every summary the registry reports.
_QUANTILES = ((0.5, 50), (0.9, 90), (0.99, 99))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (0 for an empty sequence)."""
    data = sorted(values)
    if not data:
        return 0.0
    if p <= 0.0:
        return float(data[0])
    if p >= 100.0:
        return float(data[-1])
    rank = max(1, math.ceil(p / 100.0 * len(data)))
    return float(data[rank - 1])


class RuntimeStats:
    """Counters, gauges, batch sizes and stage latencies, one lock."""

    def __init__(self, reservoir: int = 4096) -> None:
        if reservoir < 1:
            raise ValueError("reservoir must be >= 1")
        self._lock = threading.Lock()
        self._reservoir = reservoir
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._peaks: Dict[str, float] = {}
        self._batch_sizes: Deque[int] = deque(maxlen=reservoir)
        self._stage_ms: Dict[str, Deque[float]] = {}

    # ------------------------------------------------------------------
    # counters and gauges

    def incr(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (created at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def set_counter(self, name: str, value: int) -> None:
        """Overwrite counter ``name`` (the verdict cache mirrors its own in)."""
        with self._lock:
            self._counters[name] = int(value)

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name``, tracking its peak."""
        with self._lock:
            self._gauges[name] = float(value)
            if value > self._peaks.get(name, float("-inf")):
                self._peaks[name] = float(value)

    # ------------------------------------------------------------------
    # distributions

    def observe_batch(self, size: int) -> None:
        """Record one flushed batch of ``size`` requests."""
        with self._lock:
            self._counters["batches_total"] = (
                self._counters.get("batches_total", 0) + 1
            )
            self._counters["batched_requests_total"] = (
                self._counters.get("batched_requests_total", 0) + int(size)
            )
            self._batch_sizes.append(int(size))

    def observe_stage(self, stage: str, ms: float) -> None:
        """Record one latency observation for a pipeline stage."""
        with self._lock:
            series = self._stage_ms.get(stage)
            if series is None:
                series = deque(maxlen=self._reservoir)
                self._stage_ms[stage] = series
            series.append(float(ms))

    def stage_percentile(self, stage: str, p: float) -> float:
        """Latency percentile (ms) of ``stage`` over the reservoir."""
        with self._lock:
            return percentile(self._stage_ms.get(stage, ()), p)

    # ------------------------------------------------------------------
    # derived rates

    @property
    def cache_hit_rate(self) -> float:
        """Hits over probes (0 before the first probe)."""
        with self._lock:
            hits = self._counters.get("cache_hits", 0)
            misses = self._counters.get("cache_misses", 0)
        total = hits + misses
        return hits / total if total else 0.0

    # ------------------------------------------------------------------
    # export

    def collect(self, out) -> None:
        """Report the registry into ``out`` under ``polygraph_runtime_``."""
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            peaks = dict(self._peaks)
            sizes = list(self._batch_sizes)
            stages = sorted((k, list(v)) for k, v in self._stage_ms.items() if v)
        prefix = "polygraph_runtime"
        for name, value in counters:
            out.counter(f"{prefix}_{name}", value)
        for name, value in gauges:
            out.gauge(f"{prefix}_{name}", value)
            out.gauge(f"{prefix}_{name}_peak", peaks[name])
        out.gauge(f"{prefix}_cache_hit_rate", round(self.cache_hit_rate, 6))
        if sizes:
            quantiles = {q: percentile(sizes, p) for q, p in _QUANTILES}
            out.summary(f"{prefix}_batch_size", quantiles)
            out.gauge(f"{prefix}_batch_size_max", max(sizes))
        for stage, series in stages:
            quantiles = {q: round(percentile(series, p), 4) for q, p in _QUANTILES}
            out.summary(f"{prefix}_stage_latency_ms", quantiles, stage=stage)
