"""Shard partitions: one model, N scoring partitions, one ring.

A *shard* is a partition of the serving process: its own
:class:`~repro.runtime.service.RuntimeScoringService` — wire contract,
dedup window, verdict cache, counters — over the one
:class:`~repro.core.pipeline.BrowserPolygraph` the supervisor holds.
Cache misses are scored by the batch core single-process ``serve`` runs,
and a model call that raises answers its misses ``internal_error``, as
one process does; a partition always answers.  ``--shards N`` therefore
partitions caches and dedup windows inside one process; it adds no
parallelism, no child process and no shared memory.

The model file is read, and its sha256 digest checked, once.  A cluster
serves that model for its whole life: model changes (rollouts,
retrains) reach serving through one
:class:`~repro.runtime.service.RuntimeScoringService` and its
:class:`~repro.rollout.manager.RolloutManager`, never through shards.

:class:`ShardSupervisor` owns the partitions plus the consistent-hash
ring that places every wire on one of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.cluster.ring import HashRing
from repro.core.pipeline import BrowserPolygraph
from repro.runtime.service import RuntimeConfig, RuntimeScoringService
from repro.service.scoring import Verdict

__all__ = ["ClusterConfig", "Shard", "ShardSupervisor"]


@dataclass(frozen=True)
class ClusterConfig:
    """Topology of the serving cluster."""

    n_shards: int = 2
    # Shims: benchmarks/e2e (frozen) passes backend="process" and
    # transport="shm"; the fields go when ROADMAP item 1(a)'s benchmark
    # PR drops the arguments.
    backend: str = "process"
    transport: str = "shm"
    vnodes: int = 64

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.backend != "process":
            raise ValueError("backend must be 'process'")
        if self.transport != "shm":
            raise ValueError("transport must be 'shm'")


class Shard:
    """One partition: a :class:`RuntimeScoringService` and its counters."""

    __slots__ = ("shard_id", "service", "model_version")

    def __init__(
        self, shard_id: str, service: RuntimeScoringService, model_version: int
    ) -> None:
        self.shard_id = shard_id
        self.service = service
        self.model_version = model_version

    def score_chunk(self, wires: Sequence[bytes], rows=None, found=None) -> List[Verdict]:
        """Score this partition's chunk of a batch (``score_rows``' arguments)."""
        return self.service.score_rows(wires, rows, found)

    def transport_stats(self) -> dict:
        """Counter snapshot of the partition's cache and verdicts."""
        service = self.service
        cache = service.cache
        return {
            "cache_hits": 0 if cache is None else cache.hits,
            "cache_misses": 0 if cache is None else cache.misses,
            "cache_entries": 0 if cache is None else len(cache),
            "scored": service.scored_count,
            "flagged": service.flagged_count,
            "unknown_ua": dict(service.unknown_ua_counts),
        }


class ShardSupervisor:
    """Owns N partitions over one pipeline, and the ring that places wires.

    Parameters
    ----------
    model:
        A model file (read and digest-checked here, once) or a fitted
        pipeline every partition shares.
    expected_digest:
        sha256 a registry recorded for the file; a file carrying
        another one is refused
        (:class:`~repro.durable.UnreadableFileError`).
    model_version:
        The registry version the model corresponds to (reported per
        shard in :meth:`status_dict`).
    """

    def __init__(
        self,
        model: Union[str, Path, BrowserPolygraph],
        config: ClusterConfig = ClusterConfig(),
        runtime_config: RuntimeConfig = RuntimeConfig(),
        expected_digest: Optional[str] = None,
        model_version: int = 1,
    ) -> None:
        if not isinstance(model, BrowserPolygraph):
            model = BrowserPolygraph.load(model, expected_digest)
        self.polygraph = model
        self.config = config
        self.shards: Dict[str, Shard] = {
            f"s{index}": Shard(
                f"s{index}",
                RuntimeScoringService(model, config=runtime_config),
                model_version,
            )
            for index in range(config.n_shards)
        }
        self.ring = HashRing(vnodes=config.vnodes)
        for shard_id in self.shards:
            self.ring.add(shard_id)

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "ShardSupervisor":
        """Nothing to start: the partitions serve once built."""
        return self

    def shutdown(self, drain: bool = True) -> None:
        """Detach every partition from the pipeline; nothing is queued."""
        for shard in self.shards.values():
            shard.service.shutdown(drain=drain)

    def __enter__(self) -> "ShardSupervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown(drain=True)

    # -- coverage -------------------------------------------------------

    def attach_coverage(self, tracker) -> None:
        """Share one CoverageTracker across every partition's ingest."""
        for shard in self.shards.values():
            shard.service.attach_coverage(tracker)

    # -- introspection --------------------------------------------------

    def transport_stats(self) -> Dict[str, dict]:
        """Per-shard counters."""
        return {
            shard_id: shard.transport_stats()
            for shard_id, shard in self.shards.items()
        }

    def status_dict(self) -> dict:
        """JSON-friendly view for ``GET /cluster`` and the CLI."""
        shards = [
            {
                "shard_id": shard_id,
                "healthy": shard_id in self.ring,
                "model_version": shard.model_version,
                "on_ring": shard_id in self.ring,
            }
            for shard_id, shard in self.shards.items()
        ]
        return {
            "n_shards": self.config.n_shards,
            "healthy_shards": sum(1 for s in shards if s["healthy"]),
            "vnodes": self.config.vnodes,
            "shards": shards,
        }
