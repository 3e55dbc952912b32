"""Response bytes as the front end wrote them before it called the
request handlers directly, frozen as the references its answers must
equal: a ``POST /collect`` answer as the ``StreamReader`` front end
rendered it, a ``POST /event`` answer as the WSGI app's per-request
handler wrote it, and every other answer as the WSGI app's handler run
through the in-process WSGI bridge.  Nothing here calls the code under
test.  Not a test module itself.
"""

from __future__ import annotations

import json
from datetime import date

from repro.fingerprint.script import MAX_PAYLOAD_BYTES
from repro.service.scoring import OVERLOADED_REASON


def _head(status, headers, keep_alive=True) -> bytes:
    lines = [f"HTTP/1.1 {status}", *(f"{k}: {v}" for k, v in headers)]
    lines.append("Connection: " + ("keep-alive" if keep_alive else "close"))
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def parent_render_verdict(verdict) -> bytes:
    document = {
        "accepted": verdict.accepted,
        "flagged": verdict.flagged,
        "risk_factor": verdict.risk_factor,
        "latency_ms": round(verdict.latency_ms, 3),
    }
    headers = [("Content-Type", "application/json")]
    if not verdict.accepted:
        document["reject_reason"] = verdict.reject_reason
        if verdict.reject_reason == OVERLOADED_REASON:
            headers.append(("Retry-After", "1"))
            status = "503 Service Unavailable"
        else:
            status = "400 Bad Request"
    else:
        status = "202 Accepted"
    body = json.dumps(document).encode("utf-8")
    return _head(status, headers + [("Content-Length", len(body))]) + body


def parent_render_event(observation) -> bytes:
    verdict, revision = observation.verdict, observation.revision
    document = {
        "session_id": verdict.session_id,
        "accepted": verdict.accepted,
        "event_flagged": verdict.flagged,
        "event_risk": verdict.risk_factor,
        "reject_reason": verdict.reject_reason,
        "session_flagged": observation.session_flagged,
        "session_risk": observation.session_risk,
        "revision": None if revision is None else {
            "session_id": revision.session_id,
            "seq": revision.seq,
            "event_type": revision.event_type,
            "reason": revision.reason.value,
            "old_flagged": revision.old_flagged,
            "new_flagged": revision.new_flagged,
            "old_risk": revision.old_risk,
            "new_risk": revision.new_risk,
            "detail": revision.detail,
        },
        "event_seq": observation.event_seq,
        "session_created": observation.session_created,
    }
    body = json.dumps(document).encode("utf-8")
    status = "202 Accepted" if verdict.accepted else "400 Bad Request"
    headers = [("Content-Type", "application/json"), ("Content-Length", len(body))]
    return _head(status, headers) + body


def parent_bridge(app, method, path, body, ingest_lines, keep_alive=True) -> bytes:
    """The answer to a request the batch paths do not take: the WSGI
    app's handler over ``app.service``, ``app.sessions`` and
    ``app.coverage``, and for ``GET /metrics`` the front end's
    ``ingest_lines`` appended.  (``POST /collect`` and ``POST /event``
    reach it only without a body.)"""
    status, document = _parent_handle(app, method, path, body)
    if isinstance(document, str):
        payload = (document + "\n".join(ingest_lines) + "\n").encode("utf-8")
        content_type = "text/plain; version=0.0.4"
    else:
        payload = json.dumps(document).encode("utf-8")
        content_type = "application/json"
    headers = [("Content-Type", content_type), ("Content-Length", len(payload))]
    return _head(status, headers, keep_alive) + payload


def _parent_handle(app, method, path, body):
    service, sessions = app.service, app.sessions
    fusion = getattr(service, "fusion", None)
    no_sessions = {"error": "session streaming not enabled"}
    bad_length = "400 Bad Request", {"error": "bad content length"}
    parts = {  # endpoint: (attached part, its 404 document)
        "/rollout": (getattr(service, "rollout", None), {"error": "no rollout in progress"}),
        "/fusion": (fusion, {"error": "fusion not enabled"}),
        "/coverage": (app.coverage, {"error": "coverage tracking not enabled"}),
        "/sessions": (sessions, no_sessions),
    }
    if method == "GET" and path in parts:
        part, missing = parts[path]
        return ("404 Not Found", missing) if part is None else ("200 OK", part.status_dict())
    if method == "GET" and path == "/health":
        model = service.polygraph.cluster_model
        return "200 OK", {
            "status": "ok",
            "model_accuracy": round(float(model.accuracy_), 4),
            "clusters": model.config.n_clusters,
            "known_user_agents": len(model.ua_to_cluster),
        }
    if method == "GET" and path == "/metrics":
        return "200 OK", _parent_metrics(app)
    if method == "GET" and path == "/cluster":
        status = getattr(service, "cluster_status", None)
        if status is None:
            return "404 Not Found", {
                "error": "not serving as a cluster", "mode": "single-process"
            }
        return "200 OK", status()
    if method == "GET" and path.startswith("/session/"):
        if sessions is None:
            return "404 Not Found", no_sessions
        session_id = path[len("/session/"):]
        snapshot = sessions.session_snapshot(session_id)
        if snapshot is None:
            return "404 Not Found", {
                "error": "unknown or expired session", "session_id": session_id
            }
        return "200 OK", snapshot
    if method == "POST" and path == "/collect":
        return bad_length
    if method == "POST" and path == "/event":
        return ("404 Not Found", no_sessions) if sessions is None else bad_length
    if method != "POST" or path != "/check":
        return "404 Not Found", {"error": "unknown endpoint"}
    if fusion is None:
        return "404 Not Found", {"error": "fusion not enabled"}
    if not body or len(body) > MAX_PAYLOAD_BYTES + 128:
        return bad_length
    try:
        envelope = json.loads(body.decode("utf-8"))
        if not isinstance(envelope, dict):
            raise ValueError("not an object")
    except (ValueError, UnicodeDecodeError, RecursionError):
        return "400 Bad Request", {"error": "malformed body"}
    day = None
    if envelope.get("day"):
        try:
            day = date.fromisoformat(str(envelope["day"]))
        except ValueError:
            return "400 Bad Request", {"error": "bad day"}
    tags = (
        bool(envelope.get("untrusted_ip", False)),
        bool(envelope.get("untrusted_cookie", False)),
    )
    core = {key: envelope[key] for key in ("sid", "ua", "f", "g") if key in envelope}
    wire = json.dumps(core, separators=(",", ":")).encode("utf-8")
    verdict = service.score_wire(wire, day=day, tags=tags)
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
        return "400 Bad Request", document
    return "200 OK", document


def _parent_metrics(app) -> str:
    service = app.service
    quarantine = service.validator.quarantine
    lines = [
        "# TYPE polygraph_sessions_scored counter",
        f"polygraph_sessions_scored {service.scored_count}",
        "# TYPE polygraph_sessions_flagged counter",
        f"polygraph_sessions_flagged {service.flagged_count}",
        "# TYPE polygraph_payloads_rejected counter",
        f"polygraph_payloads_rejected {quarantine.total_rejects}",
    ]
    for reason, count in sorted(quarantine.counts().items()):
        lines.append(
            f'polygraph_payloads_rejected_by_reason{{reason="{reason.value}"}} {count}'
        )
    runtime_lines = getattr(service, "runtime_metrics_lines", None)
    if runtime_lines is not None:
        lines.extend(runtime_lines())
    else:
        unknown = getattr(service, "unknown_ua_counts", None) or {}
        for vendor in sorted(unknown):
            lines.append(
                f'polygraph_unknown_ua_total{{vendor="{vendor}"}} {unknown[vendor]}'
            )
        if getattr(service, "coverage", None) is not None:
            lines.extend(service.coverage.metrics_lines())
    if getattr(service, "fusion", None) is not None:
        lines.extend(service.fusion.metrics_lines())
    if app.sessions is not None:
        lines.extend(app.sessions.metrics_lines())
    return "\n".join(lines) + "\n"
