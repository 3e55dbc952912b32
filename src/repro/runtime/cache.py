"""The verdict cache: LRU + TTL over exact fingerprints.

The paper's whole privacy argument (Section 7) is that coarse-grained
fingerprints are *low-entropy*: a 28-integer vector plus a parsed
user-agent equivalence class lands in anonymity sets of thousands of
users.  Deployment-side, that same property means live traffic contains
only a few thousand distinct ``(feature vector, user-agent class)``
pairs — so a small cache in front of the model absorbs almost every
request, and repeat fingerprints skip the scaler→PCA→KMeans chain
entirely.

Keys are the exact integer feature tuple plus the parsed user-agent
equivalence class (``vendor-version``, the unit the cluster table is
keyed by) — never the raw session.  Values are
:class:`~repro.core.detection.DetectionResult` objects, which carry no
per-session state, so caching is a pure optimization: a hit returns
byte-identical verdict fields to a model call.

Invalidation contract: every model swap (retrain, drift-triggered
promotion, load) must call :meth:`invalidate`, and entries computed
against an older model generation are dropped at :meth:`put_many` time —
a flush that raced a retrain cannot poison the cache with stale
verdicts.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Optional, Sequence

from repro.runtime.stats import RuntimeStats

__all__ = ["VerdictCache"]


class VerdictCache:
    """LRU + TTL cache of detection results.

    Parameters
    ----------
    max_entries:
        LRU capacity; the least-recently-used entry is evicted beyond it.
    ttl_seconds:
        Entries older than this are expired on probe.  ``None`` disables
        the TTL (pure LRU).
    clock:
        Injectable monotonic clock (seconds) for tests.
    stats:
        Shared :class:`RuntimeStats`; a private one is created if
        omitted.  :meth:`sync_stats` mirrors ``cache_hits``,
        ``cache_misses``, ``cache_evictions``, ``cache_expirations``,
        ``cache_invalidations`` and ``cache_stale_drops`` into it.
    """

    def __init__(
        self,
        max_entries: int = 8192,
        ttl_seconds: Optional[float] = 300.0,
        clock: Callable[[], float] = time.monotonic,
        stats: Optional[RuntimeStats] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive (or None)")
        self.max_entries = max_entries
        self.ttl_seconds = ttl_seconds
        self.stats = stats if stats is not None else RuntimeStats()
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, Tuple[float, object]]" = OrderedDict()
        self._model_generation: Optional[int] = None
        # Counters are plain ints mutated under the cache lock — the
        # probe path runs per request, and a nested stats-lock round
        # trip per probe is measurable.  ``sync_stats`` mirrors them
        # into the shared registry when metrics are rendered.
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._expirations = 0
        self._invalidations = 0
        self._stale_drops = 0

    # ------------------------------------------------------------------

    def make_key(self, values: Sequence[int], ua_class: str) -> tuple:
        """Cache key for a feature vector and a parsed UA class."""
        if type(values) is tuple:
            # The hot path hands us the ingest-validated int tuple: reuse it.
            return (ua_class, values)
        return (ua_class, tuple(int(v) for v in values))

    def get(self, key: tuple) -> Optional[object]:
        """Probe the cache; returns the cached result or ``None``."""
        now = self._clock()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            stored_at, value = entry
            if (
                self.ttl_seconds is not None
                and now - stored_at > self.ttl_seconds
            ):
                del self._entries[key]
                self._expirations += 1
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def get_many(self, keys: Sequence[Optional[tuple]]) -> list:
        """Probe a whole chunk under one lock and one clock read.

        ``None`` keys pass through as ``None`` without touching the
        hit/miss counters (the caller uses them for positions it never
        built a key for, e.g. rejected wires).  Per-key semantics —
        TTL expiry, LRU touch, counters — match :meth:`get` exactly.
        """
        now = self._clock()
        ttl = self.ttl_seconds
        deadline = None if ttl is None else now - ttl
        out: list = []
        append = out.append
        hits = misses = expirations = 0
        with self._lock:
            entries = self._entries
            entries_get = entries.get
            move_to_end = entries.move_to_end
            for key in keys:
                if key is None:
                    append(None)
                    continue
                entry = entries_get(key)
                if entry is None:
                    misses += 1
                    append(None)
                    continue
                stored_at, value = entry
                if deadline is not None and stored_at < deadline:
                    del entries[key]
                    expirations += 1
                    misses += 1
                    append(None)
                    continue
                move_to_end(key)
                hits += 1
                append(value)
            self._hits += hits
            self._misses += misses
            self._expirations += expirations
        return out

    def put(
        self, key: tuple, value: object, generation: Optional[int] = None
    ) -> bool:
        """Insert a result computed against model ``generation``.

        Returns ``False`` (and stores nothing) when ``generation`` no
        longer matches the cache's model generation — the caller scored
        against a model that has since been swapped out.
        """
        return self.put_many((key,), (value,), generation)

    def put_many(
        self,
        keys: Sequence[Optional[tuple]],
        values: Sequence[object],
        generation: Optional[int] = None,
    ) -> bool:
        """Insert one model call's results under one lock and one clock read.

        ``values[i]`` was computed against model ``generation`` for
        ``keys[i]``; ``None`` keys are skipped (wires served uncached).
        A stale ``generation`` refuses the whole call, counting one
        stale drop per non-``None`` key.  Contents, LRU order and
        counters end up exactly as a :meth:`put` per key would leave
        them, except that every entry shares the one timestamp.
        """
        now = self._clock()
        with self._lock:
            if (
                generation is not None
                and self._model_generation is not None
                and generation != self._model_generation
            ):
                self._stale_drops += sum(key is not None for key in keys)
                return False
            entries = self._entries
            move_to_end = entries.move_to_end
            max_entries = self.max_entries
            for key, value in zip(keys, values):
                if key is None:
                    continue
                entries[key] = (now, value)
                move_to_end(key)
                while len(entries) > max_entries:
                    entries.popitem(last=False)
                    self._evictions += 1
            return True

    def invalidate(self, generation: Optional[int] = None) -> int:
        """Drop every entry (model swap); returns how many were dropped.

        ``generation`` records the new model generation so that stale
        :meth:`put` calls from in-flight batches are rejected.
        """
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            if generation is not None:
                self._model_generation = generation
            self._invalidations += 1
        return dropped

    def set_model_generation(self, generation: int) -> None:
        """Pin the model generation without dropping entries (startup)."""
        with self._lock:
            self._model_generation = generation

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def model_generation(self) -> Optional[int]:
        """The model generation entries are valid for."""
        with self._lock:
            return self._model_generation

    @property
    def hits(self) -> int:
        """Lifetime cache hits."""
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        """Lifetime cache misses (including TTL expirations)."""
        with self._lock:
            return self._misses

    @property
    def expirations(self) -> int:
        """Entries expired by the TTL."""
        with self._lock:
            return self._expirations

    @property
    def hit_rate(self) -> float:
        """Hits over probes (0 before the first probe)."""
        with self._lock:
            total = self._hits + self._misses
            return self._hits / total if total else 0.0

    def sync_stats(self) -> None:
        """Mirror the cache counters into the shared stats registry."""
        with self._lock:
            pairs = (
                ("cache_hits", self._hits),
                ("cache_misses", self._misses),
                ("cache_evictions", self._evictions),
                ("cache_expirations", self._expirations),
                ("cache_invalidations", self._invalidations),
                ("cache_stale_drops", self._stale_drops),
            )
        for name, value in pairs:
            self.stats.set_counter(name, value)
