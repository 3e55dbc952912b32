"""WSGI application for the collection endpoint.

A dependency-free HTTP surface around :class:`ScoringService`, runnable
under any WSGI server (``wsgiref.simple_server`` works for demos):

* ``POST /collect`` — one wire payload in the body; responds with the
  verdict as JSON (``202`` accepted, ``400`` rejected);
* ``GET  /health``  — liveness + model metadata;
* ``GET  /metrics`` — scored/flagged counters and the quarantine
  breakdown, Prometheus-style plain text;
* ``GET  /rollout`` — status of the in-flight model rollout (stage,
  disagreement report), when the runtime has one attached;
* ``GET  /cluster`` — shard topology and routing counters, when a
  :class:`~repro.cluster.router.ClusterRouter` is serving (404 with a
  JSON body in single-process mode);
* ``POST /event`` — one event-envelope payload; scored through the
  session layer, responds with the per-event verdict plus the sticky
  session verdict and any revision (404 when session streaming is off);
* ``GET  /session/{id}`` — live state of one session;
* ``GET  /sessions`` — session-layer aggregate status;
* ``POST /check`` — the risk engine's fused-verdict endpoint: a wire
  payload plus optional ``untrusted_ip`` / ``untrusted_cookie`` /
  ``day`` context, answered with the cluster verdict *and* the fused
  verdict + agreement cell (404 when no fusion arm is attached);
* ``GET  /fusion`` — fusion-arm status: agreement-cell counters,
  guardrail state, and the model summary;
* ``GET  /coverage`` — release-coverage intelligence: per-vendor
  unknown-UA rates against their calendar-derived expected bands plus
  the top unknown releases (404 when no tracker is attached).

The app never exposes more than the verdict: the cluster table and the
model internals stay server-side, which matters because Algorithm 1's
outputs are inputs to FinOrg's risk engine, not to the client.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable, List, Tuple

from repro.fingerprint.script import MAX_PAYLOAD_BYTES
from repro.service.scoring import OVERLOADED_REASON, ScoringService

__all__ = ["CollectionApp"]

# Shed traffic should come back, just not immediately: the runtime's
# queue drains in milliseconds, so a short client backoff suffices.
_RETRY_AFTER_SECONDS = "1"

# The WSGI body cap IS the wire-contract cap (paper Section 3's 1KB
# budget): anything larger would be quarantined as OVERSIZED by the
# validator anyway, so reading it off the socket only buys an attacker
# free memory.  Deriving it keeps the two caps from silently diverging.
_MAX_BODY = MAX_PAYLOAD_BYTES


class CollectionApp:
    """WSGI callable wrapping a scoring service.

    ``service`` is either the per-request :class:`ScoringService` or the
    high-throughput :class:`~repro.runtime.service.RuntimeScoringService`
    — both speak the same ``score_wire`` contract, and the runtime
    additionally contributes its metrics registry to ``/metrics``.

    ``sessions`` optionally attaches a
    :class:`~repro.sessions.service.SessionScoringService` wrapping the
    same inner service; the event-stream endpoints 404 without it, and
    its ``polygraph_session_*`` registry joins ``/metrics`` with it.

    ``coverage`` optionally attaches a
    :class:`~repro.coverage.tracker.CoverageTracker`; ``GET /coverage``
    404s without it.  (Its ``polygraph_coverage_*`` lines reach
    ``/metrics`` through the scoring service it is attached to.)
    """

    def __init__(
        self, service: ScoringService, sessions=None, coverage=None
    ) -> None:
        self.service = service
        self.sessions = sessions
        self.coverage = coverage

    # ------------------------------------------------------------------

    def __call__(
        self, environ: dict, start_response: Callable
    ) -> Iterable[bytes]:
        method = environ.get("REQUEST_METHOD", "GET")
        path = environ.get("PATH_INFO", "/")
        if method == "POST" and path == "/collect":
            return self._collect(environ, start_response)
        if method == "GET" and path == "/health":
            return self._health(start_response)
        if method == "GET" and path == "/metrics":
            return self._metrics(start_response)
        if method == "GET" and path == "/rollout":
            return self._rollout(start_response)
        if method == "GET" and path == "/cluster":
            return self._cluster(start_response)
        if method == "POST" and path == "/check":
            return self._check(environ, start_response)
        if method == "GET" and path == "/fusion":
            return self._fusion(start_response)
        if method == "GET" and path == "/coverage":
            return self._coverage(start_response)
        if method == "POST" and path == "/event":
            return self._event(environ, start_response)
        if method == "GET" and path == "/sessions":
            return self._sessions(start_response)
        if method == "GET" and path.startswith("/session/"):
            return self._session(path[len("/session/"):], start_response)
        return self._respond(
            start_response, "404 Not Found", {"error": "unknown endpoint"}
        )

    # ------------------------------------------------------------------

    def _collect(self, environ: dict, start_response: Callable) -> List[bytes]:
        try:
            length = int(environ.get("CONTENT_LENGTH") or 0)
        except ValueError:
            length = 0
        if length <= 0 or length > _MAX_BODY:
            return self._respond(
                start_response, "400 Bad Request", {"error": "bad content length"}
            )
        body = environ["wsgi.input"].read(length)
        verdict = self.service.score_wire(body)
        document = {
            "accepted": verdict.accepted,
            "flagged": verdict.flagged,
            "risk_factor": verdict.risk_factor,
            "latency_ms": round(verdict.latency_ms, 3),
        }
        if not verdict.accepted:
            document["reject_reason"] = verdict.reject_reason
            if verdict.reject_reason == OVERLOADED_REASON:
                # Overload is the server's condition, not the payload's:
                # 503 + Retry-After tells a well-behaved client to back
                # off briefly instead of treating the session as bad.
                return self._respond(
                    start_response,
                    "503 Service Unavailable",
                    document,
                    extra_headers=[("Retry-After", _RETRY_AFTER_SECONDS)],
                )
            return self._respond(start_response, "400 Bad Request", document)
        return self._respond(start_response, "202 Accepted", document)

    def _check(self, environ: dict, start_response: Callable) -> List[bytes]:
        if getattr(self.service, "fusion", None) is None:
            return self._respond(
                start_response,
                "404 Not Found",
                {"error": "fusion not enabled"},
            )
        try:
            length = int(environ.get("CONTENT_LENGTH") or 0)
        except ValueError:
            length = 0
        # The check envelope adds the risk-engine context fields on top
        # of the wire payload; a fixed allowance covers them.
        if length <= 0 or length > _MAX_BODY + 128:
            return self._respond(
                start_response, "400 Bad Request", {"error": "bad content length"}
            )
        body = environ["wsgi.input"].read(length)
        try:
            envelope = json.loads(body.decode("utf-8"))
            if not isinstance(envelope, dict):
                raise ValueError("not an object")
        except (ValueError, UnicodeDecodeError, RecursionError):
            return self._respond(
                start_response, "400 Bad Request", {"error": "malformed body"}
            )
        day = None
        if envelope.get("day"):
            from datetime import date

            try:
                day = date.fromisoformat(str(envelope["day"]))
            except ValueError:
                return self._respond(
                    start_response, "400 Bad Request", {"error": "bad day"}
                )
        tags = (
            bool(envelope.get("untrusted_ip", False)),
            bool(envelope.get("untrusted_cookie", False)),
        )
        core = {key: envelope[key] for key in ("sid", "ua", "f") if key in envelope}
        if "g" in envelope:
            core["g"] = envelope["g"]
        wire = json.dumps(core, separators=(",", ":")).encode("utf-8")
        verdict = self.service.score_wire(wire, day=day, tags=tags)
        document = {
            "accepted": verdict.accepted,
            "flagged": verdict.flagged,
            "risk_factor": verdict.risk_factor,
            "fused_flagged": verdict.fused_flagged,
            "fusion_cell": verdict.fusion_cell,
            "second_probability": verdict.second_probability,
            "second_lift": verdict.second_lift,
            "latency_ms": round(verdict.latency_ms, 3),
        }
        if not verdict.accepted:
            document["reject_reason"] = verdict.reject_reason
            return self._respond(start_response, "400 Bad Request", document)
        return self._respond(start_response, "200 OK", document)

    def _fusion(self, start_response: Callable) -> List[bytes]:
        arm = getattr(self.service, "fusion", None)
        if arm is None:
            return self._respond(
                start_response,
                "404 Not Found",
                {"error": "fusion not enabled"},
            )
        return self._respond(start_response, "200 OK", arm.status_dict())

    def _coverage(self, start_response: Callable) -> List[bytes]:
        if self.coverage is None:
            return self._respond(
                start_response,
                "404 Not Found",
                {"error": "coverage tracking not enabled"},
            )
        return self._respond(
            start_response, "200 OK", self.coverage.status_dict()
        )

    def _event(self, environ: dict, start_response: Callable) -> List[bytes]:
        if self.sessions is None:
            return self._respond(
                start_response,
                "404 Not Found",
                {"error": "session streaming not enabled"},
            )
        try:
            length = int(environ.get("CONTENT_LENGTH") or 0)
        except ValueError:
            length = 0
        # The envelope adds ev/seq/ts on top of the wire payload; a
        # fixed allowance covers them without loosening the core cap.
        if length <= 0 or length > _MAX_BODY + 128:
            return self._respond(
                start_response, "400 Bad Request", {"error": "bad content length"}
            )
        body = environ["wsgi.input"].read(length)
        observation = self.sessions.observe_wire(body)
        document = observation.to_dict()
        if not observation.verdict.accepted:
            return self._respond(start_response, "400 Bad Request", document)
        return self._respond(start_response, "202 Accepted", document)

    def _sessions(self, start_response: Callable) -> List[bytes]:
        if self.sessions is None:
            return self._respond(
                start_response,
                "404 Not Found",
                {"error": "session streaming not enabled"},
            )
        return self._respond(start_response, "200 OK", self.sessions.status_dict())

    def _session(self, session_id: str, start_response: Callable) -> List[bytes]:
        if self.sessions is None:
            return self._respond(
                start_response,
                "404 Not Found",
                {"error": "session streaming not enabled"},
            )
        snapshot = self.sessions.session_snapshot(session_id)
        if snapshot is None:
            return self._respond(
                start_response,
                "404 Not Found",
                {"error": "unknown or expired session", "session_id": session_id},
            )
        return self._respond(start_response, "200 OK", snapshot)

    def _health(self, start_response: Callable) -> List[bytes]:
        model = self.service.polygraph.cluster_model
        return self._respond(
            start_response,
            "200 OK",
            {
                "status": "ok",
                "model_accuracy": round(float(model.accuracy_), 4),
                "clusters": model.config.n_clusters,
                "known_user_agents": len(model.ua_to_cluster),
            },
        )

    def _rollout(self, start_response: Callable) -> List[bytes]:
        manager = getattr(self.service, "rollout", None)
        if manager is None:
            return self._respond(
                start_response,
                "404 Not Found",
                {"error": "no rollout in progress"},
            )
        return self._respond(start_response, "200 OK", manager.status_dict())

    def _cluster(self, start_response: Callable) -> List[bytes]:
        status = getattr(self.service, "cluster_status", None)
        if status is None:
            return self._respond(
                start_response,
                "404 Not Found",
                {"error": "not serving as a cluster", "mode": "single-process"},
            )
        return self._respond(start_response, "200 OK", status())

    def _metrics(self, start_response: Callable) -> List[bytes]:
        quarantine = self.service.validator.quarantine
        lines = [
            "# TYPE polygraph_sessions_scored counter",
            f"polygraph_sessions_scored {self.service.scored_count}",
            "# TYPE polygraph_sessions_flagged counter",
            f"polygraph_sessions_flagged {self.service.flagged_count}",
            "# TYPE polygraph_payloads_rejected counter",
            f"polygraph_payloads_rejected {quarantine.total_rejects}",
        ]
        for reason, count in sorted(quarantine.counts().items()):
            lines.append(
                f'polygraph_payloads_rejected_by_reason{{reason="{reason.value}"}} {count}'
            )
        # The high-throughput runtime contributes its own registry
        # (cache hit rate, batch sizes, stage latencies).
        runtime_lines = getattr(self.service, "runtime_metrics_lines", None)
        if runtime_lines is not None:
            lines.extend(runtime_lines())
        else:
            # The per-request service has no metrics registry; its
            # unknown-UA counters and coverage lines are emitted here.
            # (The runtime and cluster router emit their own copies
            # inside runtime_metrics_lines.)
            unknown = getattr(self.service, "unknown_ua_counts", None) or {}
            for vendor in sorted(unknown):
                lines.append(
                    f'polygraph_unknown_ua_total{{vendor="{vendor}"}} '
                    f"{unknown[vendor]}"
                )
            coverage = getattr(self.service, "coverage", None)
            if coverage is not None:
                lines.extend(coverage.metrics_lines())
        fusion = getattr(self.service, "fusion", None)
        if fusion is not None:
            lines.extend(fusion.metrics_lines())
        if self.sessions is not None:
            lines.extend(self.sessions.metrics_lines())
        body = ("\n".join(lines) + "\n").encode("utf-8")
        start_response(
            "200 OK",
            [
                ("Content-Type", "text/plain; version=0.0.4"),
                ("Content-Length", str(len(body))),
            ],
        )
        return [body]

    # ------------------------------------------------------------------

    @staticmethod
    def _respond(
        start_response: Callable,
        status: str,
        document: dict,
        extra_headers: Iterable[Tuple[str, str]] = (),
    ) -> List[bytes]:
        body = json.dumps(document).encode("utf-8")
        headers = [
            ("Content-Type", "application/json"),
            ("Content-Length", str(len(body))),
        ]
        headers.extend(extra_headers)
        start_response(status, headers)
        return [body]
