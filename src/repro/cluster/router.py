"""The cluster router: one ``score_many`` surface over many shards.

:class:`ClusterRouter` speaks the same contract as
:class:`~repro.service.scoring.ScoringService` — wires in,
:class:`~repro.service.scoring.Verdict` out, plus the counters and
metrics hooks :class:`~repro.service.api.CollectionApp` reads — so the
WSGI app and the CLI serve path do not know whether one shard or eight
sit behind them.

There is one way through: :meth:`ClusterRouter.score_many` partitions a
batch by ring owner and scores each shard's chunk with one
``score_chunk`` call; ``score_wire(w)`` is ``score_many([w])[0]``.

**Failover.**  Wires a shard leaves unanswered — it raised, it is off
the ring, or its transport broke mid-chunk and shed them as
``overloaded`` — are re-partitioned over each wire's *next untried*
replica in ring-preference order and scored as chunks through the same
call, a hop at a time, until answered or out of replicas (then the
answer is ``overloaded``, counted ``unroutable``).  No wire is asked of
the same replica twice, and each is counted once, under the shard that
answered it.

The invariant the determinism tests pin down: for a fixed model
generation a re-routed wire gets exactly the verdict a single-shard
service would have produced.  Failover does not filter replicas by model
version — during a quorum flip a re-routed wire is answered on the next
replica's generation, whole (see :mod:`repro.cluster.distribution`).
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Sequence

from repro.cluster.ring import _SID_PREFIX, wire_routing_key
from repro.cluster.supervisor import ShardError, ShardSupervisor
from repro.core.pipeline import BrowserPolygraph
from repro.runtime.pool import OVERLOADED_REASON, overloaded_verdict
from repro.service.ingest import RejectReason
from repro.service.scoring import Verdict

__all__ = ["ClusterRouter", "RouterConfig"]

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
    """Routing policy.

    ``affinity="session"`` routes by session id (the default; canary
    buckets and dedup windows stay shard-sticky).  ``"fingerprint"``
    routes by the payload's fingerprint bytes, partitioning the verdict
    cache's key space so aggregate cache capacity scales with the shard
    count.
    """

    __slots__ = ("affinity",)

    def __init__(self, affinity: str = "session") -> None:
        if affinity not in ("session", "fingerprint"):
            raise ValueError("affinity must be 'session' or 'fingerprint'")
        self.affinity = affinity


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
        self.failovers_total = 0
        self.unroutable_total = 0
        self._routed: Dict[str, int] = {}
        # Ring lookups memoized per routing key under ``fingerprint``
        # affinity: coarse fingerprints repeat constantly, so the bulk
        # path resolves almost every wire with one dict probe instead
        # of a hash + bisect.  The ring's epoch counter invalidates the
        # memo on any membership change (shard death, restart, scale
        # events).  Session ids do not repeat; they are not memoized.
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
        """The per-request surface: a batch of one."""
        return self.score_many([wire])[0]

    def _owner_of(self, key: bytes) -> Optional[str]:
        """Ring owner of a key the bulk path's memo probe did not answer.

        Remembered under ``fingerprint`` affinity only: a session id
        never comes back (a follow-up event scores under ``sid@seq``),
        so a memo keyed on it would pay an insert per wire, hit nothing
        and hold 65,536 ids.
        """
        ring = self.supervisor.ring
        epoch = ring.epoch
        try:
            shard_id = ring.node_for(key)
        except (IndexError, KeyError):
            # The heartbeat thread mutated the ring mid-lookup; take
            # the supervisor's lock and resolve consistently.
            owned = self.supervisor.route(key)
            shard_id = owned[0].shard_id if owned else None
        if shard_id is not None and self.config.affinity == "fingerprint":
            memo = self._route_memo
            if epoch != self._route_epoch:
                memo.clear()
                self._route_epoch = epoch
            if len(memo) >= _ROUTE_MEMO_LIMIT:
                memo.clear()
            memo[key] = shard_id
        return shard_id

    def score_many(self, wires: Sequence[bytes]) -> List[Verdict]:
        """Partition by ring owner, score the chunks, fail over the rest.

        Verdicts come back in input order; nothing is lost.  Re-entrant:
        all per-call state is local, shared counters are lock-guarded.
        """
        results: List[Optional[Verdict]] = [None] * len(wires)
        chunks: Dict[str, List[int]] = {}
        chunks_get = chunks.get
        fingerprint = self.config.affinity == "fingerprint"
        unroutable = 0
        # Fused partition loop: ``wire_routing_key`` and the memo probe
        # of ``_owner_of`` inlined — two function calls per wire are
        # measurable at hundreds of kwps.  The epoch check runs once
        # per chunk; a membership change mid-loop lands wires on the
        # old owner, and the failover pass below re-routes them, exactly
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
            shard_id = memo_get(key) if fingerprint else None
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
        unanswered = self._dispatch(chunks, wires, results)
        if unanswered:
            self._fail_over(unanswered, wires, results)
        return results  # type: ignore[return-value]

    def _dispatch(
        self,
        chunks: Dict[str, List[int]],
        wires: Sequence[bytes],
        results: List[Optional[Verdict]],
    ) -> Dict[str, List[int]]:
        """Score every shard's chunk; return what each left unanswered.

        Chunks are dispatched concurrently (one on the calling thread,
        the others on a thread each) — shards are process- (or pool-)
        parallel, so scoring them sequentially would serialize the whole
        cluster behind one dispatcher.  A shard that leaves wires
        unanswered is reported to the supervisor.
        """
        unanswered: Dict[str, List[int]] = {}
        items = list(chunks.items())

        def dispatch(shard_id: str, indices: List[int]) -> None:
            try:
                left = self._score_chunk_into(shard_id, indices, wires, results)
            except Exception:  # noqa: BLE001 — a dead dispatcher loses wires
                left = [i for i in indices if results[i] is None]
            if left:
                self.supervisor.note_failure(shard_id)
                unanswered[shard_id] = left

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
        return unanswered

    def _fail_over(
        self,
        unanswered: Dict[str, List[int]],
        wires: Sequence[bytes],
        results: List[Optional[Verdict]],
    ) -> None:
        """Re-score unanswered wires on their next untried replicas.

        One hop per pass: every wire a shard left unanswered moves to
        the first replica in its ring-preference order it has not been
        asked of yet, the moved wires are scored as chunks (in arrival
        order within a shard, like any chunk), and whatever *those*
        shards leave unanswered goes round again.  A wire out of
        replicas is answered ``overloaded``.  Terminates: each pass
        adds one shard to every remaining wire's tried set.
        """
        affinity = self.config.affinity
        route = self.supervisor.route
        tried: Dict[int, set] = {}
        while unanswered:
            chunks: Dict[str, List[int]] = {}
            unroutable = 0
            for index, failed in sorted(
                (i, shard_id)
                for shard_id, indices in unanswered.items()
                for i in indices
            ):
                asked = tried.setdefault(index, set())
                asked.add(failed)
                key = wire_routing_key(wires[index], affinity)
                target = next(
                    (s.shard_id for s in route(key) if s.shard_id not in asked),
                    None,
                )
                if target is None:
                    unroutable += 1
                    results[index] = overloaded_verdict(session_id="")
                else:
                    chunks.setdefault(target, []).append(index)
            with self._lock:
                self.failovers_total += sum(map(len, chunks.values()))
                self.requests_total += unroutable
                self.unroutable_total += unroutable
            unanswered = self._dispatch(chunks, wires, results)

    def _score_chunk_into(
        self,
        shard_id: str,
        indices: List[int],
        wires: Sequence[bytes],
        results: List[Optional[Verdict]],
    ) -> List[int]:
        """Score one shard's chunk in place; return the indices it left.

        Runs concurrently with the other shards' chunks: writes only to
        its own ``results`` slots, and all shared counters are lock-guarded.
        """
        shard = self.supervisor.shards.get(shard_id)
        if shard is None:
            return indices
        try:
            verdicts = shard.score_chunk([wires[i] for i in indices])
        except ShardError:
            # A refusal is reported here and again by ``_dispatch`` as a
            # chunk that needed failover: with the default
            # ``unhealthy_after=2`` a dead shard leaves the ring within
            # the batch that found it dead, while one that only shed
            # part of a chunk gets a second chance.
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
                "requests_total": self.requests_total,
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
        return lines
