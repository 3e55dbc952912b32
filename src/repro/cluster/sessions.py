"""Compatibility alias for the session layer behind the cluster router.

Session state no longer partitions by shard: every deployment folds
events in one :class:`~repro.sessions.service.SessionScoringService`,
whose inner service is the :class:`~repro.cluster.router.ClusterRouter`
when ``serve`` runs ``--shards``.  The only importer of this name is the
frozen ``benchmarks/e2e/e2ebench/trace.py``; the alias goes with ROADMAP
item 1(a), as the ``serve --transport`` shim does.
"""

from repro.sessions.service import SessionScoringService

__all__ = ["ClusterSessionService"]

ClusterSessionService = SessionScoringService
