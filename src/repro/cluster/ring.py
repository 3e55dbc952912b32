"""The consistent-hash ring: stable request → shard placement.

Routing a serving cluster by ``hash(key) % n_shards`` forgets everything
on every topology change: grow the cluster by one shard and nearly every
session lands on a different shard, and every shard-local verdict cache
and dedup window goes cold at once.  A consistent
ring with virtual nodes fixes the operational half of that: each shard
owns many small arcs of a 64-bit hash circle, a key routes to the owner
of the first point at or after its hash, and adding or removing one
shard moves only the arcs that shard owned (~1/n of the key space).

Two routing keys matter to the cluster:

* ``session`` affinity — the ring key is the session id, matching the
  paper's per-session verdict contract (a cluster runs no rollout, so
  there is no canary to keep sticky: ``serve --registry --shards``
  exits 2);
* ``fingerprint`` affinity — the ring key is the payload bytes *after*
  the session id (user-agent + features + globals).  Coarse-grained
  fingerprints are deliberately low-cardinality (Section 7), so this
  partitions the verdict-cache key space across shards: each shard
  caches only its arc of fingerprint space and the cluster's effective
  cache capacity scales with the shard count.  A real session posts one
  fingerprint, so fingerprint affinity is still session-sticky.

Hashing is ``blake2b`` (8-byte digests): deterministic across processes
and runs, unlike the builtin ``hash``, so placement survives restarts.
"""

from __future__ import annotations

import bisect
from hashlib import blake2b
from typing import Dict, Iterator, List, Optional, Sequence

__all__ = ["HashRing", "ring_hash", "wire_routing_key"]

_SID_PREFIX = b'{"sid":"'


def ring_hash(key: bytes) -> int:
    """Deterministic 64-bit position of ``key`` on the ring."""
    return int.from_bytes(blake2b(key, digest_size=8).digest(), "big")


def wire_routing_key(wire: bytes, affinity: str = "session") -> bytes:
    """The ring key of one wire payload, without a JSON parse.

    Live payloads open with ``{"sid":"<id>"`` (the collection script
    emits them), so the session id and the fingerprint suffix are both
    byte slices.  Payloads that do not match the shape — malformed,
    oversized, adversarial — fall back to hashing the whole wire: they
    will be rejected identically by any shard's validator, so their
    placement only needs to be deterministic, not meaningful.
    """
    if wire.startswith(_SID_PREFIX):
        quote = wire.find(b'"', 8)
        if quote >= 8:
            if affinity == "fingerprint":
                return wire[quote:]
            return wire[8:quote]
    return wire


class HashRing:
    """A consistent-hash ring with virtual nodes.

    Parameters
    ----------
    vnodes:
        Ring points per node.  More points smooth the load split at the
        cost of a larger sorted array; 64 keeps the imbalance across a
        handful of shards within a few percent.
    """

    def __init__(self, vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self.epoch = 0  # bumped on membership change; invalidates memos
        self._points: List[int] = []  # sorted ring positions
        self._owners: Dict[int, str] = {}  # position -> node
        self._nodes: Dict[str, List[int]] = {}  # node -> its positions

    # ------------------------------------------------------------------
    # membership

    def add(self, node: str) -> None:
        """Place ``node``'s virtual points on the ring (idempotent)."""
        if node in self._nodes:
            return
        points: List[int] = []
        for replica in range(self.vnodes):
            point = ring_hash(f"{node}#{replica}".encode("utf-8"))
            # A 64-bit collision across vnode labels is vanishingly
            # unlikely; skip the point rather than silently re-owning it.
            if point in self._owners:
                continue
            points.append(point)
            self._owners[point] = node
            bisect.insort(self._points, point)
        self._nodes[node] = points
        self.epoch += 1

    def remove(self, node: str) -> None:
        """Lift ``node``'s points off the ring (idempotent).

        Every key the node owned routes to the next point on the circle;
        keys owned by other nodes do not move at all.
        """
        points = self._nodes.pop(node, None)
        if points is None:
            return
        for point in points:
            del self._owners[point]
            index = bisect.bisect_left(self._points, point)
            if index < len(self._points) and self._points[index] == point:
                del self._points[index]
        self.epoch += 1

    @property
    def nodes(self) -> List[str]:
        """Current ring members, sorted."""
        return sorted(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    # ------------------------------------------------------------------
    # lookup

    def node_for(self, key: bytes) -> Optional[str]:
        """The owner of ``key`` (``None`` on an empty ring)."""
        if not self._points:
            return None
        index = bisect.bisect_right(self._points, ring_hash(key))
        if index == len(self._points):
            index = 0
        return self._owners[self._points[index]]

    # ------------------------------------------------------------------
    # introspection

    def spread(self, keys: Sequence[bytes]) -> Dict[str, int]:
        """How many of ``keys`` each node owns (balance diagnostics)."""
        counts: Dict[str, int] = {node: 0 for node in self._nodes}
        for key in keys:
            owner = self.node_for(key)
            if owner is not None:
                counts[owner] += 1
        return counts

    def __iter__(self) -> Iterator[str]:
        return iter(self.nodes)
