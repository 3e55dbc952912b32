"""Detection explanations and the collection endpoint."""

import http.client
import json

import numpy as np
import pytest

from repro.browsers.profiles import BrowserProfile
from repro.browsers.useragent import Vendor, parse_ua_key
from repro.core.explain import explain_detection
from repro.fingerprint.collector import FingerprintCollector
from repro.fingerprint.script import CollectionScript
from repro.fraudbrowsers.base import FraudProfile
from repro.fraudbrowsers.catalog import fraud_browser
from repro.service.aingest import AsyncIngestServer
from repro.service.api import CollectionApp
from repro.service.ingest import PayloadValidator
from repro.service.scoring import ScoringService


class TestExplain:
    def test_consistent_session(self, trained):
        vector = FingerprintCollector().collect(
            BrowserProfile(Vendor.CHROME, 112).environment()
        )
        explanation = explain_detection(
            trained.cluster_model, vector, "chrome-112"
        )
        assert explanation.matches_claim
        assert "consistent" in explanation.summary()
        assert explanation.closest_release == "chrome-112"
        assert explanation.closest_distance == pytest.approx(0.0, abs=1e-9)

    def test_fraud_session_explained(self, trained):
        product = fraud_browser("GoLogin-3.3.23")
        vector = FingerprintCollector().collect(
            product.environment(
                FraudProfile(product.full_name, parse_ua_key("firefox-110"))
            )
        )
        explanation = explain_detection(
            trained.cluster_model, vector, "firefox-110"
        )
        assert not explanation.matches_claim
        # The engine is Chromium 114: the nearest legit release must be
        # a modern Chromium build, and the summary must say so.
        closest = parse_ua_key(explanation.closest_release)
        assert closest.vendor in (Vendor.CHROME, Vendor.EDGE)
        assert closest.version == 114
        assert "contradicts" in explanation.summary()
        assert explanation.divergences  # feature-level diff present

    def test_divergences_ranked_by_magnitude(self, trained):
        product = fraud_browser("GoLogin-3.3.23")
        vector = FingerprintCollector().collect(
            product.environment(
                FraudProfile(product.full_name, parse_ua_key("chrome-60"))
            )
        )
        explanation = explain_detection(trained.cluster_model, vector, "chrome-60")
        magnitudes = [abs(d.z_score) for d in explanation.divergences]
        assert magnitudes == sorted(magnitudes, reverse=True)

    def test_unknown_claimed_ua(self, trained):
        vector = FingerprintCollector().collect(
            BrowserProfile(Vendor.CHROME, 112).environment()
        )
        explanation = explain_detection(trained.cluster_model, vector, "chrome-300")
        assert explanation.expected_cluster is None
        assert not explanation.matches_claim

    def test_unfitted_model_rejected(self):
        from repro.core.clustering import ClusterModel

        with pytest.raises(ValueError):
            explain_detection(ClusterModel(), np.zeros(28), "chrome-112")


def _request(server, method, path, body=b""):
    """One request to the running front end: status line, headers, body."""
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        connection.request(method, path, body=body)
        response = connection.getresponse()
        status = f"{response.status} {response.reason}"
        return status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


@pytest.fixture(scope="module")
def server(trained):
    service = ScoringService(trained, validator=PayloadValidator(dedup_window=0))
    with AsyncIngestServer(CollectionApp(service), port=0) as running:
        yield running


def _wire(session_id="api-1"):
    profile = BrowserProfile(Vendor.CHROME, 112)
    return CollectionScript().run(
        profile.environment(), profile.user_agent(), session_id
    ).to_wire()


class TestCollectionApp:
    def test_collect_accepts_genuine_payload(self, server):
        status, headers, body = _request(server, "POST", "/collect", _wire())
        assert status == "202 Accepted"
        document = json.loads(body)
        assert document["accepted"] and not document["flagged"]
        assert headers["Content-Type"] == "application/json"

    def test_collect_rejects_garbage(self, server):
        status, _, body = _request(server, "POST", "/collect", b"not json")
        assert status == "400 Bad Request"
        assert json.loads(body)["reject_reason"] == "malformed"

    def test_collect_rejects_empty_body(self, server):
        status, _, _ = _request(server, "POST", "/collect", b"")
        assert status == "400 Bad Request"

    def test_collect_flags_fraud(self, server):
        from repro.browsers.useragent import format_user_agent, parse_user_agent

        product = fraud_browser("GoLogin-3.3.23")
        victim = format_user_agent(Vendor.FIREFOX, 110)
        payload = CollectionScript().run(
            product.environment(
                FraudProfile(product.full_name, parse_user_agent(victim))
            ),
            victim,
            "api-fraud",
        )
        status, _, body = _request(server, "POST", "/collect", payload.to_wire())
        assert status == "202 Accepted"
        document = json.loads(body)
        assert document["flagged"] and document["risk_factor"] == 20

    def test_health_endpoint(self, server):
        status, _, body = _request(server, "GET", "/health")
        assert status == "200 OK"
        document = json.loads(body)
        assert document["status"] == "ok"
        assert document["clusters"] == 11

    def test_metrics_endpoint(self, server):
        status, headers, body = _request(server, "GET", "/metrics")
        assert status == "200 OK"
        text = body.decode()
        assert "polygraph_sessions_scored" in text
        assert "polygraph_payloads_rejected" in text
        assert headers["Content-Type"].startswith("text/plain")

    def test_unknown_route(self, server):
        status, _, _ = _request(server, "GET", "/nope")
        assert status == "404 Not Found"


class TestHttpRoundtrip:
    def test_real_http_server(self, server):
        """POST a payload, then GET /health, on one keep-alive connection."""
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
        try:
            connection.request(
                "POST", "/collect", body=_wire("http-1"),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 202
            document = json.loads(response.read())
            assert document["accepted"] and not document["flagged"]

            connection.request("GET", "/health")
            health = connection.getresponse()
            assert health.status == 200
            assert json.loads(health.read())["clusters"] == 11
        finally:
            connection.close()
