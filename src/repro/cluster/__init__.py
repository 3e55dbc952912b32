"""Sharded serving cluster: ring routing and shard supervision.

The single-process scoring runtime (``repro.runtime``) tops out at one
process's throughput no matter how well its cache and batching behave.
This package turns it into a horizontally-scaled cluster on one surface:

* :mod:`repro.cluster.ring` — consistent-hash ring with virtual nodes;
  stable SessionID → shard placement that survives membership changes.
* :mod:`repro.cluster.supervisor` — N shard replicas (threads by
  default, processes optionally), heartbeat health checks, automatic
  drain/restart, ring-range re-routing while a shard is down.
* :mod:`repro.cluster.router` — the ``score_many`` facade: one chunk
  per shard, bulk failover to the next untried replica.

A cluster serves the model file it booted with.  It has no rollout and
no model replication: a registry's model changes (shadow -> canary ->
promote, rollback) reach serving through one
:class:`~repro.runtime.service.RuntimeScoringService` and its
:class:`~repro.rollout.manager.RolloutManager` (``serve --registry
--runtime``, and the gauntlet).
"""

from repro.cluster.ring import HashRing, ring_hash, wire_routing_key
from repro.cluster.router import ClusterRouter, RouterConfig
from repro.cluster.supervisor import (
    ClusterConfig,
    ProcessShard,
    ShardError,
    ShardStatus,
    ShardSupervisor,
    ThreadShard,
)

__all__ = [
    "ClusterConfig",
    "ClusterRouter",
    "HashRing",
    "ProcessShard",
    "RouterConfig",
    "ShardError",
    "ShardStatus",
    "ShardSupervisor",
    "ThreadShard",
    "ring_hash",
    "wire_routing_key",
]
