"""Zero-copy shared-memory transport between router and process shards.

The only data plane a :class:`~repro.cluster.supervisor.ProcessShard`
has.  Wire payloads never cross the process boundary:

* **Router-side ingest + verdict cache.**  The wire contract
  (:class:`~repro.runtime.fastingest.WireIngest`) and the
  :class:`~repro.runtime.cache.VerdictCache` run in the parent, one
  instance per shard.  Coarse-grained fingerprints are low-cardinality
  by design, so the overwhelming majority of wires resolve to a cache
  hit that never crosses the process boundary at all.

* **Shared-memory slab per shard.**  Cache *misses* cross as fixed-
  stride ``float64`` feature rows written directly into an anonymous
  shared mapping the parent creates and the forked child inherits; the
  child scores them with one vectorized model call reading the rows in
  place (zero copy on both sides) and writes compact integer results
  back into the slab.  Only small control tuples —
  ``("shmscore", seq, start, n, ua_keys)`` out, ``("shmdone", seq,
  generation, inferred)`` back — travel over the pipe.  The mapping
  has no name: nothing under ``/dev/shm``, no
  ``multiprocessing.shared_memory`` and no resource-tracker process,
  and the kernel frees it when the last process mapping it exits,
  however that process ends.

* **Slot ring with FIFO lease/ack.**  Slab rows are leased in
  contiguous runs from a ring cursor and released when the child acks
  the batch.  Because batches complete in pipe order, the free region
  is always exactly the run ``[head, head+free)`` (mod ``n_slots``),
  which keeps the ring a pair of integers — no per-slot state.  When
  the ring is exhausted the transport *waits for the oldest in-flight
  ack* (counted as a backpressure pause) instead of dropping work.

Slab layout (all little-endian, offsets in bytes)::

    0     header   int64[8]      [MAGIC, n_slots, n_features, 0...]
    64    meta     int64[S]      per-slot index into the batch's ua_keys
    64+8S results  int64[S, 4]   (predicted, expected|-1, flagged, risk|-1)
    64+40S rows    float64[S, F] feature vectors, fixed stride

Each batch names its own user-agent classes: ``ua_keys`` is the tuple
of distinct ``ua_key``s among the batch's rows (a handful — classes are
bounded by the release calendar) and ``meta`` holds each row's index
into it, so the slab itself carries no table between batches.  The
decoded results do outlive the batch: the parent keeps one
``DetectionResult`` per distinct ``(ua_key, result row)`` across
batches.  The key is the result's whole content — the interim
inference a reply names (``unknown_ua_policy="infer"``) is a function
of the ``ua_key`` under the child's one model — so an entry can never
answer for another result; the memo is cleared whole at
``_RESULT_MEMO_LIMIT`` entries.

Failure semantics: a pipe error marks the transport ``broken``, every
unanswered miss in flight completes with an :func:`overloaded_verdict`
(the router's failover re-routes them), and the supervisor restart forks
a fresh child over the *same* mapping with a fresh transport — cold
cache, dedup window and counters after a crash.

Escalation parity: the child writes **raw** (un-escalated) results; the
parent caches the raw result and applies the Section 8 namespace-probe
escalation per request with the child's handshaked config — the same
cache-raw / escalate-per-request order as ``RuntimeScoringService``.
"""

from __future__ import annotations

import mmap
import threading
import time
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.detection import DetectionResult
from repro.coverage.tracker import vendor_of
from repro.runtime.batch import Miss, answer_known, cache_keys, finish_misses
from repro.runtime.cache import VerdictCache
from repro.runtime.fastingest import WireIngest
from repro.runtime.stats import RuntimeStats
from repro.service.ingest import PayloadValidator
from repro.service.scoring import Verdict, overloaded_verdict

__all__ = [
    "SLAB_MAGIC",
    "ShmSlab",
    "SlotRing",
    "ShmTransport",
    "attach_slab_views",
    "slab_nbytes",
]

# Decoded slab results kept across batches; cleared whole at the limit
# (ua_key is attacker-chosen, so the memo needs a bound of its own).
_RESULT_MEMO_LIMIT = 8192

SLAB_MAGIC = 0x504F4C59  # "POLY"

_HEADER_BYTES = 64  # int64[8]

# Rows shipped per ("shmscore", ...) control message.  Large enough to
# amortize the pipe round-trip into one vectorized model call, small
# enough that two batches pipeline inside the default ring.
_DEFAULT_BATCH_ROWS = 1024
_PIPELINE_DEPTH = 2


def slab_nbytes(n_slots: int, n_features: int) -> int:
    """Total slab size for ``n_slots`` rows of ``n_features`` floats."""
    return _HEADER_BYTES + n_slots * (8 + 32 + 8 * n_features)


def _slab_views(buf, n_slots: int, n_features: int):
    """(header, meta, results, rows) numpy views over one slab buffer.

    Each view holds a buffer export, so the mapping cannot be unmapped
    under a live view.
    """
    header = np.frombuffer(buf, np.int64, 8, 0)
    offset = _HEADER_BYTES
    meta = np.frombuffer(buf, np.int64, n_slots, offset)
    offset += n_slots * 8
    results = np.frombuffer(buf, np.int64, n_slots * 4, offset).reshape(n_slots, 4)
    offset += n_slots * 32
    rows = np.frombuffer(buf, np.float64, n_slots * n_features, offset).reshape(
        n_slots, n_features
    )
    return header, meta, results, rows


class ShmSlab:
    """Parent-created slab: an anonymous shared mapping a forked child inherits."""

    def __init__(self, n_slots: int, n_features: int) -> None:
        if n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        if n_features < 1:
            raise ValueError("n_features must be >= 1")
        self.n_slots = n_slots
        self.n_features = n_features
        # MAP_SHARED | MAP_ANONYMOUS: pages written on either side of a
        # fork are seen by the other.
        self.mapping = mmap.mmap(-1, slab_nbytes(n_slots, n_features))
        self.header, self.meta, self.results, self.rows = _slab_views(
            self.mapping, n_slots, n_features
        )
        self.header[0] = SLAB_MAGIC
        self.header[1] = n_slots
        self.header[2] = n_features

    def close(self) -> None:
        """Unmap this process's side; the pages go with the last mapper."""
        # Drop the numpy views first: mmap.close() refuses to unmap
        # while exported buffers are alive.
        self.header = self.meta = self.results = self.rows = None
        try:
            self.mapping.close()
        except BufferError:
            pass  # a view is still alive; the mapping goes with it


def attach_slab_views(slab: ShmSlab):
    """``(meta, results, rows)`` over a slab inherited at fork.

    The header must still name the geometry the parent created; raises
    ``ValueError`` when it does not, or when the slab is closed.
    """
    n_slots, n_features = slab.n_slots, slab.n_features
    header, meta, results, rows = _slab_views(slab.mapping, n_slots, n_features)
    if header[0] != SLAB_MAGIC or header[1] != n_slots or header[2] != n_features:
        raise ValueError(
            f"slab header mismatch: {header[0]:#x}/{header[1]}/{header[2]} "
            f"vs {SLAB_MAGIC:#x}/{n_slots}/{n_features}"
        )
    return meta, results, rows


class SlotRing:
    """Contiguous-run lease/free cursor over ``n_slots`` ring slots.

    Invariant (relied on for correctness): leases are *released in
    lease order* — the transport completes batches FIFO because pipe
    replies arrive in pipe-send order.  Under that invariant the
    occupied region is always one contiguous run ``[tail, head)`` (mod
    ``n_slots``), so two integers fully describe the ring.
    """

    __slots__ = ("n_slots", "head", "free")

    def __init__(self, n_slots: int) -> None:
        if n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        self.n_slots = n_slots
        self.head = 0
        self.free = n_slots

    @property
    def occupancy(self) -> int:
        """Slots currently leased (in flight to the child)."""
        return self.n_slots - self.free

    def lease(self, want: int) -> Optional[Tuple[int, int]]:
        """Lease up to ``want`` contiguous slots; ``None`` when full.

        May return fewer than ``want`` at the ring edge (the caller
        sends a short batch and the next lease wraps to slot 0) or
        when partially occupied.  Returns ``None`` only when no slot
        is free — which, under the FIFO invariant, means a batch is in
        flight and waiting for its ack will free slots.
        """
        if want < 1:
            raise ValueError("want must be >= 1")
        if self.free == 0:
            return None
        if self.head == self.n_slots:
            self.head = 0
        count = min(want, self.n_slots - self.head, self.free)
        start = self.head
        self.head += count
        self.free -= count
        return start, count

    def release(self, count: int) -> None:
        """Return the *oldest* leased run of ``count`` slots (FIFO)."""
        if count < 0 or self.free + count > self.n_slots:
            raise ValueError(
                f"release({count}) with {self.free}/{self.n_slots} free"
            )
        self.free += count


class ShmTransport:
    """Router-side scoring engine for one shared-memory process shard.

    Owns the shard's ingest (wire contract + dedup window), verdict
    cache, and slot ring; talks to the child over ``conn`` with small
    control tuples.  All pipe + ring state is
    serialized by :attr:`lock` — the owning shard must hold it for
    *any* use of ``conn`` (heartbeat pings), and should
    score large chunks in sub-chunks so health checks can interleave.
    """

    def __init__(
        self,
        slab: ShmSlab,
        conn,
        config,
        *,
        namespace_probe: bool,
        vendor_risk: int,
        generation: int,
        validator: Optional[PayloadValidator] = None,
        batch_rows: int = _DEFAULT_BATCH_ROWS,
    ) -> None:
        self.slab = slab
        self.conn = conn
        self.lock = threading.RLock()  # pipe + ring + slab writes
        self.ingest = WireIngest(validator)
        self.stats = RuntimeStats()
        self.cache: Optional[VerdictCache] = None
        if config.cache_entries > 0:
            self.cache = VerdictCache(
                max_entries=config.cache_entries,
                ttl_seconds=config.cache_ttl_seconds,
                stats=self.stats,
            )
            self.cache.set_model_generation(generation)
        self.ring = SlotRing(slab.n_slots)
        self.batch_rows = max(1, min(batch_rows, slab.n_slots))
        self._namespace_probe = namespace_probe
        self._vendor_risk = vendor_risk
        self._seq = 0
        # (ua_key, *result row) -> DetectionResult; guarded by ``lock``.
        self._results: Dict[tuple, DetectionResult] = {}
        self.broken = False
        # Optional CoverageTracker (repro.coverage), shared across the
        # cluster's transports; fed with admitted UA keys per chunk.
        self.coverage = None
        self.scored_count = 0
        self.flagged_count = 0
        # Per-vendor unknown-UA volume, as RuntimeScoringService counts
        # it: at most one entry per vendor label.
        self.unknown_ua_counts: Dict[str, int] = {}
        self.zero_copy_batches = 0
        self.zero_copy_rows = 0
        self.backpressure_waits = 0
        self.occupancy_peak = 0
        self._count_lock = threading.Lock()

    # ------------------------------------------------------------------
    # scoring

    def score_wires(self, wires: Sequence[bytes], rows=None, found=None) -> List[Verdict]:
        """Ingest, cache-probe, and score one chunk of wires.

        Rejects and cache hits resolve entirely router-side; only the
        misses lease slab slots and round-trip to the child.  Verdicts
        come back in input order.  On a broken pipe the unanswered
        misses resolve to overloaded verdicts (the router re-routes).

        The chunk is the unit of accounting on this path: ingest takes
        the validator lock once (:meth:`WireIngest.ingest_many`), the
        cache is probed once (:meth:`VerdictCache.get_many`), and the
        loops that turn outcomes into verdicts are the ones the
        in-process runtime runs (:mod:`repro.runtime.batch`); ``rows``
        and ``found`` are ``score_rows``' (the model: a shard generation).
        """
        started = time.perf_counter()
        prepared = self.ingest.ingest_many(wires, rows)
        if self.coverage is not None:
            self.coverage.observe_many(
                [f[4] for f in prepared if f.__class__ is tuple]
            )
        cache = self.cache
        keys = cached = None
        if cache is not None:
            keys = cache_keys(cache, prepared)
            cached = cache.get_many(keys)
        if found is not None:
            generation = None if cache is None else cache.model_generation
            found[:] = [
                None if result is None else (generation, result)
                for result in cached or [None] * len(prepared)
            ]
        verdicts: List[Optional[Verdict]] = [None] * len(prepared)
        misses, hit_scored, hit_flagged, unknown = answer_known(
            prepared, keys, cached, verdicts,
            self._namespace_probe, self._vendor_risk,
            (time.perf_counter() - started) * 1000.0,
        )
        if hit_scored:
            with self._count_lock:
                self.scored_count += hit_scored
                self.flagged_count += hit_flagged
                self._count_unknown(unknown)
        if misses:
            with self.lock:
                if self.broken:
                    self._fail_misses(misses, verdicts, started)
                else:
                    try:
                        self._score_misses(misses, verdicts, started, found)
                    except (EOFError, OSError, BrokenPipeError):
                        self.broken = True
                        self._fail_misses(misses, verdicts, started)
        return verdicts

    def _score_misses(
        self,
        misses: List[Miss],
        verdicts: List[Optional[Verdict]],
        started: float,
        found: Optional[list],
    ) -> None:
        """Lease → write rows → send → (pipelined) ack.  Holds the lock."""
        pending = deque()
        rows = self.slab.rows
        meta = self.slab.meta
        pos = 0
        while pos < len(misses) or pending:
            if pos >= len(misses):
                self._complete_batch(pending.popleft(), verdicts, started, found)
                continue
            lease = self.ring.lease(min(self.batch_rows, len(misses) - pos))
            if lease is None:
                # Every slot is in flight: wait for the oldest ack.
                # This is the backpressure point — upstream producers
                # stall here instead of the ring dropping work.
                self.backpressure_waits += 1
                self._complete_batch(pending.popleft(), verdicts, started, found)
                continue
            start, count = lease
            batch = misses[pos : pos + count]
            pos += count
            ua_slot: Dict[str, int] = {}
            slot_of = ua_slot.setdefault
            meta[start : start + count] = [
                slot_of(miss.ua_key, len(ua_slot)) for miss in batch
            ]
            rows[start : start + count] = [miss.values for miss in batch]
            seq = self._seq
            self._seq += 1
            self.conn.send(("shmscore", seq, start, count, tuple(ua_slot)))
            self.zero_copy_batches += 1
            self.zero_copy_rows += count
            if self.ring.occupancy > self.occupancy_peak:
                self.occupancy_peak = self.ring.occupancy
            pending.append((seq, start, count, batch))
            if len(pending) >= _PIPELINE_DEPTH:
                self._complete_batch(pending.popleft(), verdicts, started, found)

    def _complete_batch(self, entry, verdicts, started, found) -> None:
        seq, start, count, batch = entry
        reply = self.conn.recv()
        if reply[0] == "shmerr" and reply[1] == seq:
            # Child failed this batch (model error): overload these
            # wires so the router's retry path re-routes them, keep
            # the transport up for the next batch.
            self._fail_misses(batch, verdicts, started)
            self.ring.release(count)
            return
        if reply[0] != "shmdone" or reply[1] != seq:
            raise EOFError(f"shm protocol violation: {reply[:2]!r}")
        # One result object per distinct (ua_key, result row) — the
        # child's decision table, decoded once here.  The key is the
        # result's whole content (an inference is the ua_key's), so an
        # entry is never stale.
        memo = self._results
        inferred = dict(reply[3])
        results = []
        for miss, row in zip(
            batch, self.slab.results[start : start + count].tolist()
        ):
            key = (miss.ua_key, *row)
            result = memo.get(key)
            if result is None:
                if len(memo) >= _RESULT_MEMO_LIMIT:
                    memo.clear()
                predicted, expected, flagged, risk = row
                release, distance = inferred.get(miss.ua_key, (None, None))
                result = memo[key] = DetectionResult(
                    ua_key=miss.ua_key,
                    predicted_cluster=predicted,
                    expected_cluster=None if expected < 0 else expected,
                    flagged=bool(flagged),
                    risk_factor=None if risk < 0 else risk,
                    inferred_release=release,
                    inferred_distance=distance,
                )
            results.append(result)
        flagged, unknown = finish_misses(
            batch, results, reply[2], self.cache, verdicts,
            self._namespace_probe, self._vendor_risk,
            (time.perf_counter() - started) * 1000.0, found, reply[2],
        )
        self.ring.release(count)
        with self._count_lock:
            self.scored_count += count
            self.flagged_count += flagged
            self._count_unknown(unknown)

    def _count_unknown(self, unknown: List[str]) -> None:
        """Tally out-of-table keys by vendor; the caller holds ``_count_lock``."""
        counts = self.unknown_ua_counts
        for ua_key in unknown:
            vendor = vendor_of(ua_key)
            counts[vendor] = counts.get(vendor, 0) + 1

    def _fail_misses(
        self,
        misses: List[Miss],
        verdicts: List[Optional[Verdict]],
        started: float,
    ) -> None:
        """Overload every miss not yet answered (pipe or child failed)."""
        latency_ms = (time.perf_counter() - started) * 1000.0
        for miss in misses:
            if verdicts[miss.index] is None:
                verdicts[miss.index] = overloaded_verdict(
                    miss.session_id, latency_ms
                )

    # ------------------------------------------------------------------
    # lifecycle / introspection

    def transport_stats(self) -> Dict[str, object]:
        """Counter snapshot for ``/metrics`` and ``cluster_status``."""
        cache_hits = cache_misses = 0
        if self.cache is not None:
            self.cache.sync_stats()
            cache_hits = self.stats.counter("cache_hits")
            cache_misses = self.stats.counter("cache_misses")
        with self._count_lock:
            scored = self.scored_count
            flagged = self.flagged_count
            unknown = dict(self.unknown_ua_counts)
        return {
            "mode": "shm",
            "broken": self.broken,
            "zero_copy_batches": self.zero_copy_batches,
            "zero_copy_rows": self.zero_copy_rows,
            "backpressure_waits": self.backpressure_waits,
            "ring_slots": self.ring.n_slots,
            "ring_occupancy": self.ring.occupancy,
            "ring_occupancy_peak": self.occupancy_peak,
            "cache_hits": cache_hits,
            "cache_misses": cache_misses,
            "cache_entries": len(self.cache) if self.cache is not None else 0,
            "scored": scored,
            "flagged": flagged,
            "unknown_ua": unknown,
        }
