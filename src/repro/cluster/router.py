"""The cluster router: one ``score_many`` surface over many partitions.

:class:`ClusterRouter` speaks the same contract as
:class:`~repro.service.scoring.ScoringService` — wires in,
:class:`~repro.service.scoring.Verdict` out, plus the counters and the
``collect(out)`` that :class:`~repro.service.api.CollectionApp` reads — so the
request handlers and the CLI serve path do not know whether one shard
or eight sit behind them.

There is one way through: :meth:`ClusterRouter.score_rows` partitions a
batch by ring owner and scores each shard's chunk with one
``score_chunk`` call; ``score_wire(w)`` is ``score_many([w])[0]``.
Every shard is an in-process partition over the same pipeline
(:mod:`repro.cluster.supervisor`), so every wire is answered by the
shard the ring names, with the verdict one process would give it.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Sequence

from repro.cluster.ring import _SID_PREFIX
from repro.cluster.supervisor import ShardSupervisor
from repro.service.scoring import Verdict, collect_verdicts

__all__ = ["ClusterRouter", "RouterConfig"]

_ROUTE_MEMO_LIMIT = 65_536  # distinct routing keys memoized per epoch

# A batch's chunks are scored on a thread each when there is a second
# CPU.  Every partition runs in this process, so the threads overlap
# little; they stay, with the route memo, so that the hit path costs
# what it did until ROADMAP item 2 deletes the router.
_PARALLEL_DISPATCH = (os.cpu_count() or 1) > 1

# The reason prefix of a verdict whose model call raised: one process
# answers it without counting a rejected payload, and so does the router.
_INTERNAL_ERROR = "internal_error"


class RouterConfig:
    """Routing policy.

    ``affinity="session"`` routes by session id (the default; a
    session's dedup window stays on one shard).  ``"fingerprint"``
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
        # The pipeline every partition scores with, for endpoints that
        # introspect the model (/health).
        self.polygraph = supervisor.polygraph
        self._lock = threading.Lock()
        self.scored_count = 0
        self.flagged_count = 0
        # Rejected wires by reason value; guarded by ``_lock``.
        self.reject_counts: Dict[str, int] = {}
        self.requests_total = 0
        self._routed: Dict[str, int] = {}
        # Ring lookups memoized per routing key under ``fingerprint``
        # affinity: coarse fingerprints repeat constantly, so the bulk
        # path resolves almost every wire with one dict probe instead
        # of a hash + bisect.  The ring's epoch counter invalidates the
        # memo on any membership change.  Session ids do not repeat;
        # they are not memoized.  Keyed by ``hash(key)``, not the key:
        # a tail copy per entry would only remember one shard id.  Two
        # keys of one hash share an owner, which only sends a wire to
        # another partition over the same model, and so to the same
        # verdict.
        self._route_memo: Dict[int, str] = {}
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

    def attach_coverage(self, tracker) -> "ClusterRouter":
        """Share one CoverageTracker across every partition's ingest,
        seeded with the model's known-release table."""
        self.supervisor.attach_coverage(tracker)
        self.coverage = tracker
        return self

    # ------------------------------------------------------------------
    # scoring

    def score_wire(self, wire: bytes, day=None) -> Verdict:
        """The per-request surface: a batch of one."""
        return self.score_many([wire])[0]

    def _owner_of(self, key: bytes) -> str:
        """Ring owner of a key the bulk path's memo probe did not answer.

        Remembered under ``fingerprint`` affinity only: a session id
        never comes back (a follow-up event scores under ``sid@seq``),
        so a memo keyed on it would pay an insert per wire, hit nothing
        and hold 65,536 ids.
        """
        shard_id = self.supervisor.ring.node_for(key)
        if self.config.affinity == "fingerprint":
            memo = self._route_memo
            if len(memo) >= _ROUTE_MEMO_LIMIT:
                memo.clear()
            memo[hash(key)] = shard_id
        return shard_id

    def score_many(self, wires: Sequence[bytes]) -> List[Verdict]:
        """Partition by ring owner and score the chunks.

        Verdicts come back in input order.  Re-entrant: all per-call
        state is local, shared counters are lock-guarded.
        """
        return self.score_rows(wires, None, None)

    def score_rows(self, wires: Sequence[bytes], rows, found, day=None) -> List[Verdict]:
        """:meth:`score_many` beside the session layer's envelope rows:
        :meth:`RuntimeScoringService.score_rows`, without a day."""
        if found is not None:
            found[:] = [None] * len(wires)
        results: List[Optional[Verdict]] = [None] * len(wires)
        chunks: Dict[str, List[int]] = {}
        chunks_get = chunks.get
        fingerprint = self.config.affinity == "fingerprint"
        # Fused partition loop: ``wire_routing_key`` and the memo probe
        # of ``_owner_of`` inlined — two function calls per wire are
        # measurable at hundreds of kwps.  The epoch check runs once
        # per batch.
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
            shard_id = memo_get(hash(key)) if fingerprint else None
            if shard_id is None:
                shard_id = owner_of(key)
            chunk = chunks_get(shard_id)
            if chunk is None:
                chunk = chunks[shard_id] = []
            chunk.append(index)
        self._dispatch(chunks, (wires, rows, results, found))
        return results  # type: ignore[return-value]

    def _dispatch(self, chunks: Dict[str, List[int]], batch: tuple) -> None:
        """Score every shard's chunk: the last on the calling thread,
        the others on a thread each.  What a chunk raised is raised
        here once every chunk is done, as one process's batch would."""
        items = list(chunks.items())
        errors: List[BaseException] = []

        def dispatch(shard_id: str, indices: List[int]) -> None:
            try:
                self._score_chunk_into(shard_id, indices, *batch)
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                errors.append(exc)

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
        if errors:
            raise errors[0]

    def _score_chunk_into(
        self,
        shard_id: str,
        indices: List[int],
        wires: Sequence[bytes],
        rows: Optional[Sequence[tuple]],
        results: List[Optional[Verdict]],
        found: Optional[list],
    ) -> None:
        """Score one shard's chunk in place.

        Runs concurrently with the other shards' chunks: writes only to
        its own ``results`` slots, and all shared counters are lock-guarded.
        """
        shard = self.supervisor.shards[shard_id]
        chunk = [wires[i] for i in indices]
        if found is None:  # ``score_many``'s chunk: the wires alone
            verdicts = shard.score_chunk(chunk)
        else:
            part: list = []
            verdicts = shard.score_chunk(chunk, rows and [rows[i] for i in indices], part)
            for i, entry in zip(indices, part):
                found[i] = entry
        scored = 0
        flagged = 0
        rejected: Dict[str, int] = {}
        for i, verdict in zip(indices, verdicts):
            results[i] = verdict
            if verdict.accepted:
                scored += 1
                flagged += verdict.flagged
            else:
                reason = verdict.reject_reason or "unknown"
                if not reason.startswith(_INTERNAL_ERROR):
                    rejected[reason] = rejected.get(reason, 0) + 1
        with self._lock:
            self.requests_total += len(indices)
            self.scored_count += scored
            self.flagged_count += flagged
            for reason, count in rejected.items():
                self.reject_counts[reason] = self.reject_counts.get(reason, 0) + count
            self._routed[shard_id] = self._routed.get(shard_id, 0) + len(indices)

    # ------------------------------------------------------------------
    # observability

    def cluster_status(self) -> dict:
        """The ``GET /cluster`` document: topology + routing counters."""
        status = self.supervisor.status_dict()
        status["transport_stats"] = self.supervisor.transport_stats()
        with self._lock:
            status["router"] = {
                "affinity": self.config.affinity,
                "requests_total": self.requests_total,
                "routed_by_shard": dict(sorted(self._routed.items())),
            }
        return status

    def collect(self, out) -> None:
        """Report the cluster's series into ``out``: the scoring
        counters, routing, the shards, one ``polygraph_transport_*``
        cache series per shard, and coverage when attached."""
        status = self.cluster_status()
        router = status["router"]
        per_shard = sorted(status["transport_stats"].items())
        unknown: Dict[str, int] = {}
        for _, stats in per_shard:
            for vendor, count in stats["unknown_ua"].items():
                unknown[vendor] = unknown.get(vendor, 0) + count
        with self._lock:
            rejects = dict(self.reject_counts)
        collect_verdicts(out, self.scored_count, self.flagged_count, rejects, unknown)
        out.gauge("polygraph_cluster_shards", status["n_shards"])
        out.gauge("polygraph_cluster_healthy_shards", status["healthy_shards"])
        out.counter("polygraph_cluster_requests_total", router["requests_total"])
        for shard_id, count in router["routed_by_shard"].items():
            out.counter("polygraph_cluster_routed_total", count, shard=shard_id)
        for shard in status["shards"]:
            label = {"shard": shard["shard_id"]}
            version = shard["model_version"]
            out.gauge("polygraph_cluster_shard_healthy", int(shard["healthy"]), **label)
            out.gauge("polygraph_cluster_shard_model_version", version, **label)
        for shard_id, stats in per_shard:
            for key in ("cache_hits", "cache_misses"):
                out.counter(f"polygraph_transport_{key}_total", stats[key], shard=shard_id)
        if self.coverage is not None:
            self.coverage.collect(out)
