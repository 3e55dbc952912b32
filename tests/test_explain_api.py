"""Detection explanations and the WSGI collection endpoint."""

import io
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


def _request(app, method, path, body=b""):
    captured = {}

    def start_response(status, headers):
        captured["status"] = status
        captured["headers"] = dict(headers)

    from wsgiref.util import setup_testing_defaults

    environ = {}
    setup_testing_defaults(environ)
    environ.update(
        {
            "REQUEST_METHOD": method,
            "PATH_INFO": path,
            "QUERY_STRING": "",
            "CONTENT_LENGTH": str(len(body)),
            "wsgi.input": io.BytesIO(body),
        }
    )
    chunks = app(environ, start_response)
    try:
        payload = b"".join(chunks)
    finally:
        close = getattr(chunks, "close", None)  # PEP 3333
        if close is not None:
            close()
    return captured["status"], captured["headers"], payload


class TestCollectionApp:
    @pytest.fixture(scope="class")
    def app(self, trained):
        service = ScoringService(
            trained, validator=PayloadValidator(dedup_window=0)
        )
        return CollectionApp(service)

    def _wire(self, session_id="api-1"):
        profile = BrowserProfile(Vendor.CHROME, 112)
        return CollectionScript().run(
            profile.environment(), profile.user_agent(), session_id
        ).to_wire()

    def test_collect_accepts_genuine_payload(self, app):
        status, headers, body = _request(app, "POST", "/collect", self._wire())
        assert status == "202 Accepted"
        document = json.loads(body)
        assert document["accepted"] and not document["flagged"]
        assert headers["Content-Type"] == "application/json"

    def test_collect_rejects_garbage(self, app):
        status, _, body = _request(app, "POST", "/collect", b"not json")
        assert status == "400 Bad Request"
        assert json.loads(body)["reject_reason"] == "malformed"

    def test_collect_rejects_empty_body(self, app):
        status, _, _ = _request(app, "POST", "/collect", b"")
        assert status == "400 Bad Request"

    def test_collect_flags_fraud(self, app):
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
        status, _, body = _request(app, "POST", "/collect", payload.to_wire())
        assert status == "202 Accepted"
        document = json.loads(body)
        assert document["flagged"] and document["risk_factor"] == 20

    def test_health_endpoint(self, app):
        status, _, body = _request(app, "GET", "/health")
        assert status == "200 OK"
        document = json.loads(body)
        assert document["status"] == "ok"
        assert document["clusters"] == 11

    def test_metrics_endpoint(self, app):
        status, headers, body = _request(app, "GET", "/metrics")
        assert status == "200 OK"
        text = body.decode()
        assert "polygraph_sessions_scored" in text
        assert "polygraph_payloads_rejected" in text
        assert headers["Content-Type"].startswith("text/plain")

    def test_unknown_route(self, app):
        status, _, _ = _request(app, "GET", "/nope")
        assert status == "404 Not Found"

    def test_runs_under_wsgiref(self, app):
        from wsgiref.validate import validator as wsgi_validator

        status, _, body = _request(
            wsgi_validator(app), "POST", "/collect", self._wire("api-val")
        )
        assert status == "202 Accepted"


class TestHttpRoundtrip:
    def test_real_http_server(self, trained):
        """Serve the WSGI app on a real socket and POST a payload."""
        import http.client
        import threading
        from wsgiref.simple_server import WSGIRequestHandler, make_server

        class QuietHandler(WSGIRequestHandler):
            def log_message(self, *args):  # silence request logging
                pass

        service = ScoringService(
            trained, validator=PayloadValidator(dedup_window=0)
        )
        server = make_server(
            "127.0.0.1", 0, CollectionApp(service), handler_class=QuietHandler
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            profile = BrowserProfile(Vendor.CHROME, 112)
            wire = CollectionScript().run(
                profile.environment(), profile.user_agent(), "http-1"
            ).to_wire()
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
            connection.request(
                "POST", "/collect", body=wire,
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
            connection.close()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
