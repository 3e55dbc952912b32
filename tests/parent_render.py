"""Response bytes as the front end wrote them before it called the
request handlers directly, frozen as the references its answers must
equal: a ``POST /collect`` answer as the ``StreamReader`` front end
rendered it, a ``POST /event`` answer as the WSGI app's per-request
handler wrote it, and every other answer as the WSGI app's handler run
through the in-process WSGI bridge.  ``GET /metrics`` is frozen as the
parent's *sample map*, not its bytes: the exposition now types and
groups every family, so a scrape is compared as samples plus the format
checker (:mod:`tests.exposition_check`).  ``POST /check`` and
``GET /fusion`` went with the fusion arm: the bridge answers them as any
unknown path.  Nothing here calls the code under test.  Not a test
module itself.
"""

from __future__ import annotations

import json

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


def parent_bridge(app, method, path, keep_alive=True) -> bytes:
    """The answer to a request the batch paths do not take: the WSGI
    app's handler over ``app.service``, ``app.sessions`` and
    ``app.coverage``.  (``POST /collect`` and ``POST /event`` reach it
    only without a body; ``GET /metrics`` is :func:`parent_metrics`.)"""
    status, document = _parent_handle(app, method, path)
    payload = json.dumps(document).encode("utf-8")
    headers = [("Content-Type", "application/json"), ("Content-Length", len(payload))]
    return _head(status, headers, keep_alive) + payload


def _parent_handle(app, method, path):
    service, sessions = app.service, app.sessions
    no_sessions = {"error": "session streaming not enabled"}
    bad_length = "400 Bad Request", {"error": "bad content length"}
    parts = {  # endpoint: (attached part, its 404 document)
        "/rollout": (getattr(service, "rollout", None), {"error": "no rollout in progress"}),
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
    return "404 Not Found", {"error": "unknown endpoint"}


def parent_metrics(app, front_end=None) -> dict:
    """The ``GET /metrics`` sample map (``name{labels}`` -> value) the
    parent's renderers wrote over ``app`` and the asyncio ``front_end``,
    quantile labels as the parent spelled them.  Covers the per-request
    service and the cluster router with their coverage, the session
    layer and the front end; a test double stands for a part
    through its ``parent_samples``.  (The batched runtime's registry and
    its rollout are not covered.)"""
    service = app.service
    samples = {}

    def put(name, value, **labels):
        pairs = ",".join(f'{k}="{v}"' for k, v in labels.items())
        samples[f"{name}{{{pairs}}}" if labels else name] = float(value)

    supervisor = getattr(service, "supervisor", None)
    if supervisor is None:
        rejects = {r.value: n for r, n in service.validator.quarantine.counts().items()}
    else:
        rejects = dict(service.reject_counts)
    put("polygraph_sessions_scored", service.scored_count)
    put("polygraph_sessions_flagged", service.flagged_count)
    put("polygraph_payloads_rejected", sum(rejects.values()))
    for reason, count in rejects.items():
        put("polygraph_payloads_rejected_by_reason", count, reason=reason)
    unknown = dict(getattr(service, "unknown_ua_counts", {}))
    if supervisor is not None:
        status, router = supervisor.status_dict(), service.cluster_status()["router"]
        put("polygraph_cluster_shards", status["n_shards"])
        put("polygraph_cluster_healthy_shards", status["healthy_shards"])
        put("polygraph_cluster_requests_total", router["requests_total"])
        for shard_id, count in router["routed_by_shard"].items():
            put("polygraph_cluster_routed_total", count, shard=shard_id)
        for shard in status["shards"]:
            put("polygraph_cluster_shard_healthy", shard["healthy"], shard=shard["shard_id"])
            put("polygraph_cluster_shard_model_version", shard["model_version"],
                shard=shard["shard_id"])
        for shard_id, stats in supervisor.transport_stats().items():
            for key in ("cache_hits", "cache_misses"):
                put(f"polygraph_transport_{key}_total", stats[key], shard=shard_id)
            for vendor, count in stats["unknown_ua"].items():
                unknown[vendor] = unknown.get(vendor, 0) + count
    for vendor, count in unknown.items():
        put("polygraph_unknown_ua_total", count, vendor=vendor)
    coverage = getattr(service, "coverage", None)
    if coverage is not None:
        status = coverage.status_dict()
        put("polygraph_coverage_known_releases", status["known_releases"])
        if status["model_generation"] is not None:
            put("polygraph_coverage_generation", status["model_generation"])
        for vendor, stats in status["vendors"].items():
            put("polygraph_coverage_observed_total", stats["observed"], vendor=vendor)
            put("polygraph_coverage_unknown_total", stats["unknown"], vendor=vendor)
            put("polygraph_coverage_unknown_rate",
                f"{stats['window_unknown_rate']:.6f}", vendor=vendor)
            put("polygraph_coverage_band_high", f"{stats['band_high']:.6f}", vendor=vendor)
            put("polygraph_coverage_out_of_band", stats["out_of_band"], vendor=vendor)
    for part, render in (
        (app.sessions, _parent_sessions),
        (front_end, _parent_ingest),
    ):
        if part is not None:
            doubled = getattr(part, "parent_samples", None)
            if doubled is not None:
                samples.update(doubled)
            else:
                render(part, put)
    return samples


def _parent_sessions(sessions, put):
    status = sessions.status_dict()
    put("polygraph_session_active", status["active_sessions"])
    for name in ("events", "revisions", "escalations"):
        put(f"polygraph_session_{name}_total", status[f"{name}_total"])
    for kind in ("ttl", "capacity"):
        put("polygraph_session_evictions_total", status[f"evicted_{kind}"], kind=kind)
    for reason, count in status["revision_reasons"].items():
        put("polygraph_session_revision_reason_total", count, reason=reason)


def _parent_ingest(server, put):
    for name, value in (
        ("requests", server.requests_total),
        ("writes", server.writes_total),
        ("collect_requests", server.collect_total),
        ("event_requests", server.event_total),
        ("batches", server.batches_total),
        ("batch_rows", server.batch_rows_total),
        ("backpressure_pauses", server.backpressure_pauses),
        ("open_connections", server.open_connections),
        ("pending_wires", server._pending),
    ):
        put(f"polygraph_ingest_{name}", value)
