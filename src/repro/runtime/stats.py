"""Runtime metrics registry.

One thread-safe registry for everything the high-throughput scoring
runtime wants to observe about itself: monotonic counters (requests,
cache hits, model calls, rows the shadow scorer shed), gauges with
peak tracking (``queue_depth``: rows pending in the rollout's shadow
scorer, set per mirrored batch), the distribution of rows per model call, and
per-stage latency percentiles over a bounded reservoir.  ``/metrics``
renders the registry Prometheus-style next to the existing scoring
counters, so one scrape shows how wide the model calls are and whether
the verdict cache is earning its memory.

Latency reservoirs are bounded deques: old observations fall off, so
the percentiles track recent behaviour rather than the whole process
lifetime (what an operator staring at a dashboard wants).
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Deque, Dict, List, Sequence

__all__ = ["RuntimeStats", "percentile"]


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
        self._absolute: set = set()
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
        """Overwrite counter ``name``.

        For counters whose source of truth lives elsewhere (the service
        keeps its request totals under its own lock) and is mirrored in
        before rendering.
        """
        with self._lock:
            self._counters[name] = int(value)

    def set_gauge(self, name: str, value: float, absolute: bool = False) -> None:
        """Set gauge ``name``, tracking its peak.

        ``absolute=True`` marks the name as already fully qualified:
        :meth:`render_prometheus` emits it verbatim instead of under the
        ``polygraph_runtime_`` prefix (used for fleet-level gauges such
        as ``polygraph_model_generation``, which dashboards correlate
        with verdict shifts across services).
        """
        with self._lock:
            self._gauges[name] = float(value)
            if value > self._peaks.get(name, float("-inf")):
                self._peaks[name] = float(value)
            if absolute:
                self._absolute.add(name)

    def gauge(self, name: str) -> float:
        """Current gauge value (0 if never set)."""
        with self._lock:
            return self._gauges.get(name, 0.0)

    def peak(self, name: str) -> float:
        """Highest value gauge ``name`` ever held (0 if never set)."""
        with self._lock:
            return self._peaks.get(name, 0.0)

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

    def stages(self) -> List[str]:
        """Stages with at least one observation, sorted."""
        with self._lock:
            return sorted(self._stage_ms)

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

    def snapshot(self) -> dict:
        """A point-in-time dict of everything the registry holds."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            peaks = dict(self._peaks)
            absolute = set(self._absolute)
            batch_sizes = list(self._batch_sizes)
            stages = {k: list(v) for k, v in self._stage_ms.items()}
        return {
            "counters": counters,
            "gauges": gauges,
            "peaks": peaks,
            "absolute_gauges": absolute,
            "batch_sizes": batch_sizes,
            "stage_latency_ms": stages,
        }

    def render_prometheus(self, prefix: str = "polygraph_runtime") -> List[str]:
        """Prometheus-style text lines for ``/metrics``."""
        snap = self.snapshot()
        lines: List[str] = []
        for name in sorted(snap["counters"]):
            metric = f"{prefix}_{name}"
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {snap['counters'][name]}")
        for name in sorted(snap["gauges"]):
            if name in snap["absolute_gauges"]:
                lines.append(f"# TYPE {name} gauge")
                lines.append(f"{name} {snap['gauges'][name]:g}")
                continue
            metric = f"{prefix}_{name}"
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {snap['gauges'][name]:g}")
            lines.append(f"{metric}_peak {snap['peaks'][name]:g}")
        hit_rate = self.cache_hit_rate
        lines.append(f"# TYPE {prefix}_cache_hit_rate gauge")
        lines.append(f"{prefix}_cache_hit_rate {hit_rate:.6f}")
        if snap["batch_sizes"]:
            sizes = snap["batch_sizes"]
            lines.append(f"# TYPE {prefix}_batch_size summary")
            for q in (50, 90, 99):
                lines.append(
                    f'{prefix}_batch_size{{quantile="p{q}"}} '
                    f"{percentile(sizes, q):g}"
                )
            lines.append(f"{prefix}_batch_size_max {max(sizes):g}")
        for stage in sorted(snap["stage_latency_ms"]):
            series = snap["stage_latency_ms"][stage]
            if not series:
                continue
            for q in (50, 90, 99):
                lines.append(
                    f'{prefix}_stage_latency_ms{{stage="{stage}",quantile="p{q}"}} '
                    f"{percentile(series, q):.4f}"
                )
        return lines
