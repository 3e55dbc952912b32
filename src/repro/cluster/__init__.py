"""Sharded serving cluster: ring routing, shard supervision, replication.

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
* :mod:`repro.cluster.distribution` — digest-verified model replication
  from the registry with a quorum-gated serving-version flip.
"""

from repro.cluster.distribution import DistributionReport, ModelDistributor
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
    "DistributionReport",
    "HashRing",
    "ModelDistributor",
    "ProcessShard",
    "RouterConfig",
    "ShardError",
    "ShardStatus",
    "ShardSupervisor",
    "ThreadShard",
    "ring_hash",
    "wire_routing_key",
]
