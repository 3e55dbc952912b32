"""Sharded serving: ring routing over in-process partitions.

* :mod:`repro.cluster.ring` — consistent-hash ring with virtual nodes;
  stable SessionID → shard placement.
* :mod:`repro.cluster.supervisor` — N shards, each its own
  :class:`~repro.runtime.service.RuntimeScoringService` (ingest, dedup
  window, verdict cache) over one shared model.
* :mod:`repro.cluster.router` — the ``score_many`` facade: one chunk
  per shard.

``--shards N`` partitions caches and dedup windows inside one process;
it adds no parallelism.  A cluster serves the model file it booted
with.  It has no rollout: a registry's model changes (shadow -> canary
-> promote, rollback) reach serving through one
:class:`~repro.runtime.service.RuntimeScoringService` and its
:class:`~repro.rollout.manager.RolloutManager` (``serve --registry``,
and the gauntlet).
"""

from repro.cluster.ring import HashRing, ring_hash, wire_routing_key
from repro.cluster.router import ClusterRouter, RouterConfig
from repro.cluster.supervisor import ClusterConfig, Shard, ShardSupervisor

__all__ = [
    "ClusterConfig",
    "ClusterRouter",
    "HashRing",
    "RouterConfig",
    "Shard",
    "ShardSupervisor",
    "ring_hash",
    "wire_routing_key",
]
