"""Shard-affine event-stream session scoring for the cluster.

The single-process session layer
(:class:`~repro.sessions.service.SessionScoringService`) keeps all
session state behind one tracker lock — fine for one process, a
bottleneck and a single point of loss behind a sharded router.  This
module partitions that state the same way the scoring tier is
partitioned: one *session lane* (its own tracker, its own revision
counters, its own durable event-log directory) per shard, with the
session id's ring position choosing the lane.

Scoring itself still flows through the
:class:`~repro.cluster.router.ClusterRouter`: a batch of envelopes is
parsed once, scored with **one** ``router.score_many`` over the whole
batch — so failover and the shared-memory shard transport apply — and
then folded **once per lane**: the batch's events are grouped by lane,
arrival order kept inside each group, and every lane folds its share
under one span of its own lock (lanes share no state, clock, counter
or log directory, so the order *between* lanes is nobody's business).
The router hands every shard its wires in arrival order too, so the
shards' dedup windows see what one-at-a-time scoring would show them.
The lane only owns the session *state*: sticky verdicts, revision
tracking, TTL/capacity eviction.

Lane choice follows :meth:`HashRing.node_for` over the **parsed**
session id, the same placement the router uses under ``--affinity
session`` — so a first event's state lane and its scoring shard
coincide while the ring is stable.  Placing by the parsed id (not by a
byte slice of the envelope) is what keeps a session in one lane when a
client sends its keys in another order; a malformed envelope is
rejected before any lane is chosen.  When the ring cannot answer (all
shards draining), a deterministic hash over the sorted lane ids keeps
placement stable rather than failing the event.

``GET /sessions`` aggregates across lanes: summed counters, merged
revision reasons, and a per-shard breakdown.  ``metrics_lines`` keeps
the single-process ``polygraph_session_*`` names for the aggregates so
dashboards are indifferent to the deployment shape, and adds per-shard
active-session gauges.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.cluster.ring import ring_hash
from repro.sessions.envelope import EnvelopeParser
from repro.sessions.service import (
    SessionObservation,
    SessionScoringService,
    observe_batch,
)
from repro.sessions.store import SessionEventLog

__all__ = ["ClusterSessionService"]


class ClusterSessionService:
    """Session-layer facade over per-shard session lanes.

    Parameters
    ----------
    router:
        A started :class:`~repro.cluster.router.ClusterRouter`; it is
        the inner scoring service of every lane.
    ttl_seconds / max_sessions:
        As for the single-process layer; ``max_sessions`` is the
        *cluster-wide* budget, split evenly across lanes.
    event_log_root:
        Optional directory for durable event logs; each lane writes to
        its own ``shard-<id>`` subdirectory so a shard's stream can be
        replayed (or discarded) independently.
    """

    def __init__(
        self,
        router,
        *,
        ttl_seconds: float = 1800.0,
        max_sessions: int = 100_000,
        event_log_root: Optional[Union[str, Path]] = None,
    ) -> None:
        self.router = router
        shard_ids = sorted(router.supervisor.shards)
        if not shard_ids:
            raise ValueError("cluster has no shards to attach lanes to")
        per_lane_max = max(1, max_sessions // len(shard_ids))
        self._order: List[str] = shard_ids
        # One envelope memo for all lanes: fingerprints repeat across
        # sessions, wherever their state lives.
        self._envelopes = EnvelopeParser()
        self._lanes: Dict[str, SessionScoringService] = {}
        for shard_id in shard_ids:
            event_log = None
            if event_log_root is not None:
                event_log = SessionEventLog(
                    Path(event_log_root) / f"shard-{shard_id}"
                )
            self._lanes[shard_id] = SessionScoringService(
                router,
                event_log=event_log,
                ttl_seconds=ttl_seconds,
                max_sessions=per_lane_max,
            )

    # ------------------------------------------------------------------
    # placement

    def lane_of(self, session_id: str) -> str:
        """The shard id whose lane owns ``session_id``'s state."""
        # surrogatepass: JSON can spell a lone surrogate, and a session
        # id the ingest accepts must not fail to place.
        key = session_id.encode("utf-8", "surrogatepass")
        shard_id = self.router.supervisor.ring.node_for(key)
        if shard_id is None or shard_id not in self._lanes:
            # Ring drained or membership changed under us: place by a
            # stable hash so the same session keeps the same lane.
            shard_id = self._order[ring_hash(key) % len(self._order)]
        return shard_id

    # ------------------------------------------------------------------
    # scoring

    def observe_many(
        self, wires: Sequence[bytes], day=None
    ) -> List[SessionObservation]:
        """Score a batch of envelopes: one router call, one fold per lane."""
        return observe_batch(
            self._envelopes, self.router, self._fold_many, wires, day
        )

    def _fold_many(self, events, verdicts) -> List[SessionObservation]:
        """Fold each lane's share of the batch, in arrival order.

        Lanes share no state, clock, counter or log directory, so only
        the order *inside* a lane matters; the observations go back to
        the positions their events came from.
        """
        lane_of = self.lane_of
        shares: Dict[str, List[int]] = {}
        for index, event in enumerate(events):
            shard_id = lane_of(event.session_id)
            share = shares.get(shard_id)
            if share is None:
                share = shares[shard_id] = []
            share.append(index)
        observations: List[Optional[SessionObservation]] = [None] * len(events)
        for shard_id, share in shares.items():
            folded = self._lanes[shard_id].fold_many(
                [events[index] for index in share],
                [verdicts[index] for index in share],
            )
            for index, observation in zip(share, folded):
                observations[index] = observation
        return observations  # type: ignore[return-value]

    def observe_wire(self, wire: bytes, day=None) -> SessionObservation:
        """Score one event envelope: a batch of one."""
        return self.observe_many([wire], day=day)[0]

    def observe_event(self, event, day=None) -> SessionObservation:
        return self._lanes[self.lane_of(event.session_id)].observe_event(
            event, day=day
        )

    # ------------------------------------------------------------------
    # introspection (the CollectionApp session-endpoint surface)

    def session_snapshot(self, session_id: str) -> Optional[dict]:
        """Live state of one session, wherever its lane is.

        The owning lane answers first; if the ring moved since the
        session started, the other lanes are probed so an operator's
        lookup still finds the state.
        """
        owner = self.lane_of(session_id)
        snapshot = self._lanes[owner].session_snapshot(session_id)
        if snapshot is not None:
            snapshot["shard"] = owner
            return snapshot
        for shard_id, lane in self._lanes.items():
            if shard_id == owner:
                continue
            snapshot = lane.session_snapshot(session_id)
            if snapshot is not None:
                snapshot["shard"] = shard_id
                return snapshot
        return None

    def status_dict(self) -> dict:
        """Aggregate status (``GET /sessions``): sums + per-shard."""
        per_shard: Dict[str, dict] = {
            shard_id: lane.status_dict()
            for shard_id, lane in self._lanes.items()
        }
        reasons: Dict[str, int] = {}
        for status in per_shard.values():
            for reason, count in status["revision_reasons"].items():
                reasons[reason] = reasons.get(reason, 0) + count

        def total(field: str) -> int:
            return sum(status[field] for status in per_shard.values())

        first = next(iter(per_shard.values()))
        return {
            "partitions": len(per_shard),
            "active_sessions": total("active_sessions"),
            "ttl_seconds": first["ttl_seconds"],
            "max_sessions": total("max_sessions"),
            "events_total": total("events_total"),
            "revisions_total": total("revisions_total"),
            "escalations_total": total("escalations_total"),
            "revision_reasons": reasons,
            "evicted_ttl": total("evicted_ttl"),
            "evicted_capacity": total("evicted_capacity"),
            "shards": per_shard,
        }

    def metrics_lines(self) -> List[str]:
        """Aggregated ``polygraph_session_*`` + per-shard gauges."""
        status = self.status_dict()
        lines = [
            "# TYPE polygraph_session_active gauge",
            f"polygraph_session_active {status['active_sessions']}",
            "# TYPE polygraph_session_events_total counter",
            f"polygraph_session_events_total {status['events_total']}",
            "# TYPE polygraph_session_revisions_total counter",
            f"polygraph_session_revisions_total {status['revisions_total']}",
            "# TYPE polygraph_session_escalations_total counter",
            f"polygraph_session_escalations_total {status['escalations_total']}",
            "# TYPE polygraph_session_evictions_total counter",
            f"polygraph_session_evictions_total{{kind=\"ttl\"}} "
            f"{status['evicted_ttl']}",
            f"polygraph_session_evictions_total{{kind=\"capacity\"}} "
            f"{status['evicted_capacity']}",
            "# TYPE polygraph_session_revision_reason_total counter",
        ]
        for reason, count in sorted(status["revision_reasons"].items()):
            lines.append(
                "polygraph_session_revision_reason_total"
                f"{{reason=\"{reason}\"}} {count}"
            )
        lines.append("# TYPE polygraph_session_active_by_shard gauge")
        for shard_id in self._order:
            active = status["shards"][shard_id]["active_sessions"]
            lines.append(
                f'polygraph_session_active_by_shard{{shard="{shard_id}"}} '
                f"{active}"
            )
        return lines
