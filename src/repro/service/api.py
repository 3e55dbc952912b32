"""The collection endpoint's request handlers.

:class:`CollectionApp` answers every request the asyncio front end
(:class:`~repro.service.aingest.AsyncIngestServer`) does not answer
from its own batch paths: ``handle(method, path, body)`` returns the
status line, the headers and the body, and the front end renders them
onto the connection.  ``POST /collect`` and ``POST /event`` bodies are
scored by the front end's batch paths, not here.  Endpoints:

* ``GET  /health``  — liveness + model metadata;
* ``GET  /metrics`` — every reporting part's series in the Prometheus
  text format (:mod:`repro.metrics`), the front end's
  ``polygraph_ingest_*`` among them;
* ``GET  /rollout`` — status of the in-flight model rollout (stage,
  disagreement report), when the runtime has one attached;
* ``GET  /cluster`` — shard topology and routing counters, when a
  :class:`~repro.cluster.router.ClusterRouter` is serving (404 with a
  JSON body in single-process mode);
* ``POST /event`` — only the two answers the front end does not batch:
  404 when session streaming is off, 400 for an empty body;
* ``GET  /session/{id}`` — live state of one session;
* ``GET  /sessions`` — session-layer aggregate status;
* ``GET  /coverage`` — release-coverage intelligence: per-vendor
  unknown-UA rates against their calendar-derived expected bands plus
  the top unknown releases (404 when no tracker is attached).

The app never exposes more than the verdict: the cluster table and the
model internals stay server-side, which matters because Algorithm 1's
outputs are inputs to FinOrg's risk engine, not to the client.
"""

from __future__ import annotations

import json
from typing import List, Tuple

from repro.metrics import Exposition

__all__ = ["CollectionApp"]

Response = Tuple[str, List[Tuple[str, str]], bytes]


def _json(status: str, document: dict) -> Response:
    return (status, [("Content-Type", "application/json")],
            json.dumps(document).encode("utf-8"))


class CollectionApp:
    """The request handlers over a scoring service.

    ``service`` is either the per-request
    :class:`~repro.service.scoring.ScoringService` or the
    high-throughput :class:`~repro.runtime.service.RuntimeScoringService`
    (or the cluster router) — all speak the same ``score_wire``
    contract, and each reports its own series into ``/metrics``
    (``collect(out)``).

    ``sessions`` optionally attaches a
    :class:`~repro.sessions.service.SessionScoringService` wrapping the
    same inner service; the event-stream endpoints 404 without it, and
    its ``polygraph_session_*`` registry joins ``/metrics`` with it.

    ``coverage`` optionally attaches a
    :class:`~repro.coverage.tracker.CoverageTracker`; ``GET /coverage``
    404s without it.  (Its ``polygraph_coverage_*`` series reach
    ``/metrics`` through the scoring service it is attached to.)
    """

    def __init__(self, service, sessions=None, coverage=None) -> None:
        self.service = service
        self.sessions = sessions
        self.coverage = coverage
        self._gets = {
            "/health": self._health,
            "/metrics": self.metrics,
            "/rollout": self._rollout,
            "/cluster": self._cluster,
            "/coverage": self._coverage,
            "/sessions": self._sessions,
        }

    def handle(self, method: str, path: str) -> Response:
        """``(status, headers, body)`` for one request; no handler reads
        the request body.  The front end adds ``Content-Length``."""
        if method == "GET":
            handler = self._gets.get(path)
            if handler is not None:
                return handler()
            if path.startswith("/session/"):
                return self._session(path[len("/session/"):])
        elif method == "POST":
            if path == "/event":
                return self._event()
        return _json("404 Not Found", {"error": "unknown endpoint"})

    # ------------------------------------------------------------------

    def _coverage(self) -> Response:
        if self.coverage is None:
            return _json(
                "404 Not Found", {"error": "coverage tracking not enabled"}
            )
        return _json("200 OK", self.coverage.status_dict())

    def _event(self) -> Response:
        # The front end batches every non-empty body to the session
        # layer; what reaches here is the rest.
        if self.sessions is None:
            return _json(
                "404 Not Found", {"error": "session streaming not enabled"}
            )
        return _json("400 Bad Request", {"error": "bad content length"})

    def _sessions(self) -> Response:
        if self.sessions is None:
            return _json(
                "404 Not Found", {"error": "session streaming not enabled"}
            )
        return _json("200 OK", self.sessions.status_dict())

    def _session(self, session_id: str) -> Response:
        if self.sessions is None:
            return _json(
                "404 Not Found", {"error": "session streaming not enabled"}
            )
        snapshot = self.sessions.session_snapshot(session_id)
        if snapshot is None:
            return _json(
                "404 Not Found",
                {"error": "unknown or expired session", "session_id": session_id},
            )
        return _json("200 OK", snapshot)

    def _health(self) -> Response:
        model = self.service.polygraph.cluster_model
        return _json(
            "200 OK",
            {
                "status": "ok",
                "model_accuracy": round(float(model.accuracy_), 4),
                "clusters": model.config.n_clusters,
                "known_user_agents": len(model.ua_to_cluster),
            },
        )

    def _rollout(self) -> Response:
        manager = getattr(self.service, "rollout", None)
        if manager is None:
            return _json("404 Not Found", {"error": "no rollout in progress"})
        return _json("200 OK", manager.status_dict())

    def _cluster(self) -> Response:
        status = getattr(self.service, "cluster_status", None)
        if status is None:
            return _json(
                "404 Not Found",
                {"error": "not serving as a cluster", "mode": "single-process"},
            )
        return _json("200 OK", status())

    def metrics(self, *parts) -> Response:
        """``GET /metrics``: one exposition that the service, the session
        layer and then ``parts`` (the front end) report into."""
        out = Exposition()
        self.service.collect(out)
        for part in (self.sessions, *parts):
            if part is not None:
                part.collect(out)
        body = out.render().encode("utf-8")
        return "200 OK", [("Content-Type", "text/plain; version=0.0.4")], body
