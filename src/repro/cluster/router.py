"""The cluster router: one ``score_wire`` surface over many shards.

:class:`ClusterRouter` speaks the same contract as
:class:`~repro.service.scoring.ScoringService` — ``score_wire`` in,
:class:`~repro.service.scoring.Verdict` out, plus the counters and
metrics hooks :class:`~repro.service.api.CollectionApp` reads — so the
WSGI app and the CLI serve path do not know whether one shard or eight
sit behind them.

Routing is the ring's job (``preference(key)`` yields the primary and
its failover successors); the router's job is what happens when the
primary disappoints:

* **Failover** — a shard that raises, sheds (``overloaded``), or is
  off the ring re-routes the request to the next replica in ring order.
* **Hedging** — with a latency budget configured, a request still
  undecided at the budget is *also* submitted to the next replica and
  the first verdict wins.  Hedges only go to replicas holding the same
  model version as the primary, so the winning verdict is byte-identical
  either way (latency aside) and a rollout can never race a hedge into
  a mixed-generation answer.

Both paths preserve the invariant the determinism tests pin down: for a
fixed model generation, a hedged or re-routed request returns exactly
the verdict a single-shard service would have produced.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional, Sequence

from repro.cluster.ring import _SID_PREFIX, wire_routing_key
from repro.cluster.supervisor import ShardError, ShardSupervisor
from repro.core.pipeline import BrowserPolygraph
from repro.runtime.pool import OVERLOADED_REASON, overloaded_verdict
from repro.service.ingest import RejectReason
from repro.service.scoring import Verdict

__all__ = ["ClusterRouter", "RouterConfig"]

_POLL_S = 0.0002  # first-wins poll interval while a hedge is in flight
_ROUTE_MEMO_LIMIT = 65_536  # distinct routing keys memoized per epoch

# Per-shard dispatch threads only pay off when there is a second CPU to
# run them on: the router-side hit path is pure Python (GIL-bound), and
# on a single-CPU host even the child processes timeshare the one core,
# so threads add switch overhead without adding any overlap.
_PARALLEL_DISPATCH = (os.cpu_count() or 1) > 1


class _ExtraReason(str):
    """A reject reason outside :class:`RejectReason` (e.g. shed traffic).

    Quacks like an enum member — ``.value`` and string ordering — so the
    ``/metrics`` breakdown can mix it with real quarantine reasons.
    """

    @property
    def value(self) -> str:
        return str(self)


def _reason_key(value: str):
    try:
        return RejectReason(value)
    except ValueError:
        return _ExtraReason(value)


class _RouterQuarantine:
    """Aggregated reject counts, same shape as the validator's."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}
        self._lock = threading.Lock()

    def record(self, reason: str) -> None:
        with self._lock:
            self._counts[reason] = self._counts.get(reason, 0) + 1

    @property
    def total_rejects(self) -> int:
        with self._lock:
            return sum(self._counts.values())

    def counts(self) -> Dict[object, int]:
        with self._lock:
            return {_reason_key(value): n for value, n in self._counts.items()}


class _RouterValidator:
    """Shim so ``CollectionApp._metrics`` finds ``validator.quarantine``."""

    def __init__(self) -> None:
        self.quarantine = _RouterQuarantine()


class RouterConfig:
    """Routing policy knobs.

    Parameters
    ----------
    affinity:
        ``"session"`` routes by session id (the default; canary buckets
        and dedup windows stay shard-sticky).  ``"fingerprint"`` routes
        by the payload's fingerprint bytes, partitioning the verdict
        cache's key space so aggregate cache capacity scales with the
        shard count.
    hedge_after_ms:
        Latency budget after which an undecided request is hedged to the
        next same-version replica.  ``None`` disables hedging.
    request_timeout_s:
        Hard ceiling on one request's life in the router.
    """

    __slots__ = ("affinity", "hedge_after_ms", "request_timeout_s")

    def __init__(
        self,
        affinity: str = "session",
        hedge_after_ms: Optional[float] = None,
        request_timeout_s: float = 30.0,
    ) -> None:
        if affinity not in ("session", "fingerprint"):
            raise ValueError("affinity must be 'session' or 'fingerprint'")
        self.affinity = affinity
        self.hedge_after_ms = hedge_after_ms
        self.request_timeout_s = request_timeout_s


class ClusterRouter:
    """Route wire payloads across a :class:`ShardSupervisor`'s shards."""

    def __init__(
        self,
        supervisor: ShardSupervisor,
        config: Optional[RouterConfig] = None,
    ) -> None:
        self.supervisor = supervisor
        self.config = config or RouterConfig()
        # A reference replica for endpoints that introspect the model
        # (/health); loaded once from the same digest-verified source
        # the shards use, never scored against.
        self.polygraph = BrowserPolygraph.load(supervisor.model_path)
        self.validator = _RouterValidator()
        self._lock = threading.Lock()
        self.scored_count = 0
        self.flagged_count = 0
        self.requests_total = 0
        self.hedged_total = 0
        self.hedge_wins_total = 0
        self.failovers_total = 0
        self.unroutable_total = 0
        self._routed: Dict[str, int] = {}
        # Ring lookups memoized per routing key: coarse fingerprints
        # repeat constantly, so the bulk path resolves almost every
        # wire with one dict probe instead of a hash + bisect.  The
        # ring's epoch counter invalidates the memo on any membership
        # change (shard death, restart, scale events).
        self._route_memo: Dict[bytes, str] = {}
        self._route_epoch = -1
        # Optional cluster-wide CoverageTracker (repro.coverage).
        self.coverage = None

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> "ClusterRouter":
        self.supervisor.start()
        return self

    def shutdown(self, drain: bool = True) -> None:
        self.supervisor.shutdown(drain=drain)

    @property
    def rollout(self):
        return self.supervisor.rollout

    def attach_coverage(self, tracker) -> "ClusterRouter":
        """Share one CoverageTracker across the whole cluster.

        Seeds the known-release table from the router's reference
        replica, then propagates the tracker to every shard via the
        supervisor.
        """
        generation, detector = self.polygraph.detection_snapshot()
        tracker.set_known_keys(
            detector.model.ua_to_cluster, generation=generation
        )
        self.supervisor.attach_coverage(tracker)
        self.coverage = tracker
        return self

    # ------------------------------------------------------------------
    # scoring

    def score_wire(self, wire: bytes, day=None) -> Verdict:
        """Route, score, and failover/hedge one wire payload."""
        with self._lock:
            self.requests_total += 1
        key = wire_routing_key(wire, self.config.affinity)
        candidates = self.supervisor.route(key)
        verdict = self._score_routed(wire, candidates)
        if verdict is None:
            with self._lock:
                self.unroutable_total += 1
            verdict = overloaded_verdict(session_id="")
        self._account(verdict)
        return verdict

    def _owner_of(self, key: bytes) -> Optional[str]:
        """Memoized ring owner lookup for the bulk path."""
        ring = self.supervisor.ring
        memo = self._route_memo
        epoch = ring.epoch
        if epoch != self._route_epoch:
            memo.clear()
            self._route_epoch = epoch
        shard_id = memo.get(key)
        if shard_id is None:
            try:
                shard_id = ring.node_for(key)
            except (IndexError, KeyError):
                # The heartbeat thread mutated the ring mid-lookup; take
                # the supervisor's lock and resolve consistently.
                owned = self.supervisor.route(key)
                shard_id = owned[0].shard_id if owned else None
            if shard_id is not None:
                if len(memo) >= _ROUTE_MEMO_LIMIT:
                    memo.clear()
                memo[key] = shard_id
        return shard_id

    def score_many(self, wires: Sequence[bytes]) -> List[Verdict]:
        """Bulk path: partition by ring owner, score chunks concurrently.

        Shard chunks are dispatched concurrently (one on the calling
        thread, the others on a thread each) — shards are process- (or
        pool-) parallel, so scoring them sequentially would serialize
        the whole cluster behind one dispatcher, which is exactly the
        plateau this transport exists to break.  Wires
        whose chunk hits a dead or shedding shard are individually
        re-routed through :meth:`score_wire` afterwards — nothing is
        lost, order is kept.
        """
        results: List[Optional[Verdict]] = [None] * len(wires)
        chunks: Dict[str, List[int]] = {}
        chunks_get = chunks.get
        affinity = self.config.affinity
        fingerprint = affinity == "fingerprint"
        unroutable = 0
        # Fused partition loop: ``wire_routing_key`` and the memo probe
        # of ``_owner_of`` inlined — two function calls per wire are
        # measurable at hundreds of kwps.  The epoch check runs once
        # per chunk; a membership change mid-loop lands wires on the
        # old owner, and the retry pass below re-routes them, exactly
        # as it does for a chunk already in flight during the change.
        ring = self.supervisor.ring
        memo = self._route_memo
        if ring.epoch != self._route_epoch:
            memo.clear()
            self._route_epoch = ring.epoch
        memo_get = memo.get
        owner_of = self._owner_of
        for index, wire in enumerate(wires):
            key = wire
            if wire.startswith(_SID_PREFIX):
                quote = wire.find(b'"', 8)
                if quote >= 8:
                    key = wire[quote:] if fingerprint else wire[8:quote]
            shard_id = memo_get(key)
            if shard_id is None:
                shard_id = owner_of(key)
                if shard_id is None:
                    unroutable += 1
                    results[index] = overloaded_verdict(session_id="")
                    continue
            chunk = chunks_get(shard_id)
            if chunk is None:
                chunk = chunks[shard_id] = []
            chunk.append(index)
        if unroutable:
            with self._lock:
                self.requests_total += unroutable
                self.unroutable_total += unroutable
        retries: Dict[str, List[int]] = {}
        items = list(chunks.items())

        def dispatch(shard_id: str, indices: List[int]) -> None:
            try:
                retries[shard_id] = self._score_chunk_into(
                    shard_id, indices, wires, results
                )
            except Exception:  # noqa: BLE001 — a dead dispatcher loses wires
                retries[shard_id] = [
                    i for i in indices if results[i] is None
                ]

        # The caller would only wait for its threads: it scores the last
        # chunk itself, so N shards cost N-1 thread starts per batch.
        threads = [
            threading.Thread(
                target=dispatch,
                args=(shard_id, indices),
                name=f"polygraph-dispatch-{shard_id}",
                daemon=True,
            )
            for shard_id, indices in (items[:-1] if _PARALLEL_DISPATCH else ())
        ]
        for thread in threads:
            thread.start()
        for shard_id, indices in items[len(threads):]:
            dispatch(shard_id, indices)
        for thread in threads:
            thread.join()
        for shard_id, retry in retries.items():
            if retry:
                self.supervisor.note_failure(shard_id)
                with self._lock:
                    self.failovers_total += len(retry)
                for i in retry:
                    results[i] = self.score_wire(wires[i])
        return results  # type: ignore[return-value]

    def _score_chunk_into(
        self,
        shard_id: str,
        indices: List[int],
        wires: Sequence[bytes],
        results: List[Optional[Verdict]],
    ) -> List[int]:
        """Score one shard's chunk in place; return indices to re-route.

        Runs concurrently with the other shards' chunks: writes only to
        its own ``results`` slots, and all shared counters are lock-guarded.
        """
        shard = self.supervisor.shards.get(shard_id)
        if shard is None:
            return indices
        try:
            verdicts = shard.score_chunk([wires[i] for i in indices])
        except (ShardError, TimeoutError):
            self.supervisor.note_failure(shard_id)
            return indices
        retry: List[int] = []
        scored = 0
        flagged = 0
        for i, verdict in zip(indices, verdicts):
            if verdict.reject_reason == OVERLOADED_REASON:
                retry.append(i)
                continue
            results[i] = verdict
            if verdict.accepted:
                scored += 1
                flagged += verdict.flagged
            else:
                self.validator.quarantine.record(
                    verdict.reject_reason or "unknown"
                )
        answered = len(indices) - len(retry)
        with self._lock:
            self.requests_total += answered
            self.scored_count += scored
            self.flagged_count += flagged
            self._routed[shard_id] = self._routed.get(shard_id, 0) + answered
        return retry

    # ------------------------------------------------------------------
    # routing internals

    def _score_routed(self, wire: bytes, candidates: List) -> Optional[Verdict]:
        """Submit along the preference list; hedge; first verdict wins."""
        pending = list(candidates)
        in_flight: List[tuple] = []
        version: Optional[int] = None
        primary = None

        def submit_next() -> bool:
            nonlocal version, primary
            while pending:
                shard = pending.pop(0)
                if version is not None and shard.model_version != version:
                    continue  # replicas on another generation cannot answer
                try:
                    handle = shard.submit_wire(wire)
                except ShardError:
                    self.supervisor.note_failure(shard.shard_id)
                    with self._lock:
                        self.failovers_total += 1
                    continue
                if version is None:
                    version = shard.model_version
                    primary = shard
                with self._lock:
                    self._routed[shard.shard_id] = (
                        self._routed.get(shard.shard_id, 0) + 1
                    )
                in_flight.append((shard, handle))
                return True
            return False

        submit_next()
        budget = self.config.hedge_after_ms
        deadline = time.monotonic() + self.config.request_timeout_s
        hedge_at = None if budget is None else time.monotonic() + budget / 1000.0
        while in_flight:
            if budget is None and len(in_flight) == 1:
                # Fast path: no hedging configured, block on the handle.
                shard, handle = in_flight.pop(0)
                try:
                    verdict = handle.result(
                        timeout=max(0.0, deadline - time.monotonic())
                    )
                except TimeoutError:
                    self.supervisor.note_failure(shard.shard_id)
                    with self._lock:
                        self.failovers_total += 1
                    submit_next()
                    continue
            else:
                now = time.monotonic()
                if now > deadline:
                    break
                if hedge_at is not None and now >= hedge_at:
                    hedge_at = None  # at most one hedge per request
                    if submit_next():
                        with self._lock:
                            self.hedged_total += 1
                decided = next(
                    (pair for pair in in_flight if pair[1].done()), None
                )
                if decided is None:
                    time.sleep(_POLL_S)
                    continue
                in_flight.remove(decided)
                shard, handle = decided
                verdict = handle.result(timeout=0.0)
            if verdict.reject_reason == OVERLOADED_REASON:
                # Shed or died under us: count it and try a replica.
                self.supervisor.note_failure(shard.shard_id)
                with self._lock:
                    self.failovers_total += 1
                if not in_flight:
                    submit_next()
                continue
            if primary is not None and shard is not primary:
                with self._lock:
                    self.hedge_wins_total += 1
            return verdict
        return None

    def _account(self, verdict: Verdict) -> None:
        if verdict.accepted:
            with self._lock:
                self.scored_count += 1
                if verdict.flagged:
                    self.flagged_count += 1
        else:
            self.validator.quarantine.record(verdict.reject_reason or "unknown")

    # ------------------------------------------------------------------
    # observability

    def cluster_status(self) -> dict:
        """The ``GET /cluster`` document: topology + routing counters."""
        status = self.supervisor.status_dict()
        transport_stats = self.supervisor.transport_stats()
        if transport_stats:
            status["transport_stats"] = transport_stats
        with self._lock:
            status["router"] = {
                "affinity": self.config.affinity,
                "hedge_after_ms": self.config.hedge_after_ms,
                "requests_total": self.requests_total,
                "hedged_total": self.hedged_total,
                "hedge_wins_total": self.hedge_wins_total,
                "failovers_total": self.failovers_total,
                "unroutable_total": self.unroutable_total,
                "routed_by_shard": dict(sorted(self._routed.items())),
            }
        return status

    def runtime_metrics_lines(self) -> List[str]:
        """``polygraph_cluster_*`` lines for the ``/metrics`` endpoint."""
        status = self.supervisor.status_dict()
        with self._lock:
            lines = [
                "# TYPE polygraph_cluster_shards gauge",
                f"polygraph_cluster_shards {status['n_shards']}",
                "# TYPE polygraph_cluster_healthy_shards gauge",
                f"polygraph_cluster_healthy_shards {status['healthy_shards']}",
                "# TYPE polygraph_cluster_serving_version gauge",
                f"polygraph_cluster_serving_version {status['serving_version']}",
                "# TYPE polygraph_cluster_requests_total counter",
                f"polygraph_cluster_requests_total {self.requests_total}",
                "# TYPE polygraph_cluster_hedged_total counter",
                f"polygraph_cluster_hedged_total {self.hedged_total}",
                "# TYPE polygraph_cluster_hedge_wins_total counter",
                f"polygraph_cluster_hedge_wins_total {self.hedge_wins_total}",
                "# TYPE polygraph_cluster_failovers_total counter",
                f"polygraph_cluster_failovers_total {self.failovers_total}",
                "# TYPE polygraph_cluster_routed_total counter",
            ]
            for shard_id, count in sorted(self._routed.items()):
                lines.append(
                    f'polygraph_cluster_routed_total{{shard="{shard_id}"}} {count}'
                )
        for shard in status["shards"]:
            lines.append(
                f'polygraph_cluster_shard_healthy{{shard="{shard["shard_id"]}"}} '
                f'{1 if shard["healthy"] else 0}'
            )
            lines.append(
                f'polygraph_cluster_shard_model_version{{shard="{shard["shard_id"]}"}} '
                f'{shard["model_version"]}'
            )
            lines.append(
                f'polygraph_cluster_shard_restarts{{shard="{shard["shard_id"]}"}} '
                f'{shard["restarts"]}'
            )
        lines.extend(self._transport_metrics_lines())
        unknown = self.supervisor.unknown_ua_counts()
        for vendor in sorted(unknown):
            lines.append(
                f'polygraph_unknown_ua_total{{vendor="{vendor}"}} '
                f"{unknown[vendor]}"
            )
        if self.coverage is not None:
            lines.extend(self.coverage.metrics_lines())
        return lines

    _TRANSPORT_METRICS = (
        ("zero_copy_batches", "zero_copy_batches_total", "counter"),
        ("zero_copy_rows", "zero_copy_rows_total", "counter"),
        ("pickle_fallbacks", "pickle_fallbacks_total", "counter"),
        ("backpressure_waits", "backpressure_pauses_total", "counter"),
        ("cache_hits", "cache_hits_total", "counter"),
        ("cache_misses", "cache_misses_total", "counter"),
        ("ring_occupancy", "ring_occupancy", "gauge"),
        ("ring_occupancy_peak", "ring_occupancy_peak", "gauge"),
    )

    def _transport_metrics_lines(self) -> List[str]:
        """``polygraph_transport_*`` lines, one series per process shard.

        Thread-backed clusters (and single-process serving) have no
        transport, so these lines are cleanly absent there.
        """
        per_shard = self.supervisor.transport_stats()
        if not per_shard:
            return []
        lines: List[str] = []
        for key, metric, kind in self._TRANSPORT_METRICS:
            lines.append(f"# TYPE polygraph_transport_{metric} {kind}")
            for shard_id, stats in sorted(per_shard.items()):
                lines.append(
                    f'polygraph_transport_{metric}{{shard="{shard_id}"}} '
                    f"{stats[key]}"
                )
        lines.append("# TYPE polygraph_transport_shm_mode gauge")
        for shard_id, stats in sorted(per_shard.items()):
            lines.append(
                f'polygraph_transport_shm_mode{{shard="{shard_id}"}} '
                f'{1 if stats["mode"] == "shm" else 0}'
            )
        return lines
