"""The fusion serving path: policy, guardrails, service, API, CLI."""

import io
import json

import pytest

from repro.core.pipeline import BrowserPolygraph
from repro.fusion.arm import FusionArm
from repro.fusion.model import FusionModel, SecondOpinion
from repro.fusion.policy import (
    AgreementCell,
    FusionGuardrailConfig,
    FusionPolicy,
    FusionPolicyConfig,
)
from repro.service.api import CollectionApp
from repro.service.ingest import PayloadValidator
from repro.service.scoring import ScoringService
from repro.sessions.service import SessionScoringService
from repro.traffic.events import EventType, SessionEvent
from repro.traffic.replay import iter_wire_payloads


@pytest.fixture(scope="module")
def fusion_model(trained, small_dataset):
    # A subset is plenty for serving-path tests; what matters is that
    # the model is bound to the same projection `trained` serves.
    return FusionModel.train(
        small_dataset.rows(0, 6_000), trained.cluster_model
    )


def _opinion(lift, probability=0.5):
    return SecondOpinion(
        raw=0.5,
        probability=probability,
        lift=lift,
        matched_node=True,
        staleness_days=0.0,
    )


class _StubModel:
    """Controllable second opinions for exercising the arm's guardrails."""

    def __init__(self, lift):
        self._lift = lift

    def bind(self, cluster_model):
        return self

    def second_opinion(
        self,
        values,
        user_agent,
        day=None,
        untrusted_ip=False,
        untrusted_cookie=False,
    ):
        return _opinion(self._lift)

    def status_dict(self):
        return {"nodes": 0}


# ----------------------------------------------------------------------
# policy


class TestFusionPolicy:
    def test_agree_benign(self):
        fused = FusionPolicy().decide(False, _opinion(lift=0.5))
        assert fused.cell is AgreementCell.AGREE_BENIGN
        assert not fused.second_flagged and not fused.fused_flagged

    def test_agree_fraud(self):
        fused = FusionPolicy().decide(True, _opinion(lift=3.0))
        assert fused.cell is AgreementCell.AGREE_FRAUD
        assert fused.second_flagged and fused.fused_flagged

    def test_cluster_only(self):
        fused = FusionPolicy().decide(True, _opinion(lift=0.0))
        assert fused.cell is AgreementCell.CLUSTER_ONLY
        assert not fused.second_flagged and fused.fused_flagged

    def test_second_opinion_only(self):
        fused = FusionPolicy().decide(False, _opinion(lift=3.0))
        assert fused.cell is AgreementCell.SECOND_ONLY
        assert fused.second_flagged and fused.fused_flagged

    def test_second_only_cell_has_its_own_bar(self):
        policy = FusionPolicy(
            FusionPolicyConfig(second_opinion_lift=2.0, second_only_lift=4.0)
        )
        fused = policy.decide(False, _opinion(lift=3.0))
        # Fraud-grade enough to enter the matrix, not enough to flag alone.
        assert fused.cell is AgreementCell.SECOND_ONLY
        assert fused.second_flagged and not fused.fused_flagged
        assert policy.decide(False, _opinion(lift=5.0)).fused_flagged

    def test_annotator_mode_never_escalates(self):
        policy = FusionPolicy(FusionPolicyConfig(second_only_flags=False))
        fused = policy.decide(False, _opinion(lift=10.0))
        assert fused.second_flagged and not fused.fused_flagged

    def test_additive_only_contract(self):
        # A flagged cluster verdict survives every configuration.
        policy = FusionPolicy(FusionPolicyConfig(cluster_only_flags=False))
        assert policy.decide(True, _opinion(lift=0.0)).fused_flagged

    def test_verdict_to_dict(self):
        document = FusionPolicy().decide(True, _opinion(lift=3.0)).to_dict()
        assert document["cell"] == "agree_fraud"
        assert document["fused_flagged"] is True

    @pytest.mark.parametrize(
        "overrides",
        [
            {"second_opinion_lift": 0.0},
            {"second_opinion_lift": 3.0, "second_only_lift": 2.0},
        ],
    )
    def test_policy_config_validation(self, overrides):
        with pytest.raises(ValueError):
            FusionPolicyConfig(**overrides)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"max_second_flag_rate": 1.5},
            {"max_fused_flag_rate_delta": -0.1},
            {"max_mean_latency_ms": 0.0},
            {"min_verdicts": 0},
        ],
    )
    def test_guardrail_config_validation(self, overrides):
        with pytest.raises(ValueError):
            FusionGuardrailConfig(**overrides)


# ----------------------------------------------------------------------
# the serving arm and its guardrails


class TestFusionArmGuardrails:
    def test_second_flag_rate_breach_disables(self):
        arm = FusionArm(
            _StubModel(lift=5.0),
            guardrails=FusionGuardrailConfig(
                max_second_flag_rate=0.0, min_verdicts=1
            ),
        )
        # The breaching verdict is still served; the arm disables after.
        outcome = arm.consider((1, 2), "ua", cluster_flagged=False)
        assert outcome is not None
        assert not arm.enabled
        assert arm.disable_reason == "second_flag_rate"
        assert arm.breach["limit"] == 0.0
        # Sticky: every later session is cluster-only.
        assert arm.consider((1, 2), "ua", cluster_flagged=False) is None

    def test_fused_flag_rate_delta_breach_disables(self):
        arm = FusionArm(
            _StubModel(lift=5.0),
            guardrails=FusionGuardrailConfig(
                max_second_flag_rate=1.0,
                max_fused_flag_rate_delta=0.0,
                min_verdicts=1,
            ),
        )
        arm.consider((1, 2), "ua", cluster_flagged=False)
        assert arm.disable_reason == "fused_flag_rate_delta"

    def test_latency_breach_disables(self):
        arm = FusionArm(
            _StubModel(lift=0.0),
            guardrails=FusionGuardrailConfig(
                max_mean_latency_ms=1e-9, min_verdicts=1
            ),
        )
        arm.consider((1, 2), "ua", cluster_flagged=False)
        assert arm.disable_reason == "second_opinion_latency"

    def test_quiet_below_min_verdicts(self):
        arm = FusionArm(
            _StubModel(lift=5.0),
            guardrails=FusionGuardrailConfig(
                max_second_flag_rate=0.0, min_verdicts=10
            ),
        )
        for _ in range(9):
            assert arm.consider((1, 2), "ua", False) is not None
        assert arm.enabled

    def test_status_and_metrics_reflect_disable(self):
        arm = FusionArm(
            _StubModel(lift=5.0),
            guardrails=FusionGuardrailConfig(
                max_second_flag_rate=0.0, min_verdicts=1
            ),
        )
        arm.consider((1, 2), "ua", cluster_flagged=True)
        status = arm.status_dict()
        assert not status["enabled"]
        assert status["verdicts"] == 1
        assert status["cells"]["agree_fraud"] == 1
        lines = arm.metrics_lines()
        assert "polygraph_fusion_enabled 0" in lines
        assert (
            'polygraph_fusion_disabled_info{reason="second_flag_rate"} 1'
            in lines
        )

    def test_retrain_disables_the_arm(self, small_dataset):
        # A model-generation swap invalidates the node embeddings'
        # geometry, so the arm must roll back to cluster-only verdicts.
        subset = small_dataset.rows(0, 3_000)
        polygraph = BrowserPolygraph().fit(subset)
        model = FusionModel.train(subset, polygraph.cluster_model)
        service = ScoringService(polygraph, fusion=FusionArm(model))
        wires = list(iter_wire_payloads(subset, limit=2))
        before = service.score_wire(wires[0])
        assert before.fused_flagged is not None
        service.retrain(subset)
        assert not service.fusion.enabled
        assert service.fusion.disable_reason == "model_generation_changed"
        after = service.score_wire(wires[1])
        assert after.accepted
        assert after.fused_flagged is None and after.fusion_cell is None


# ----------------------------------------------------------------------
# scoring service integration


class TestScoringServiceFusion:
    def test_cluster_verdict_identical_with_and_without_arm(
        self, trained, fusion_model, small_dataset
    ):
        plain = ScoringService(trained)
        fused = ScoringService(trained, fusion=FusionArm(fusion_model))
        for wire in iter_wire_payloads(small_dataset.rows(0, 128)):
            expected = plain.score_wire(wire)
            observed = fused.score_wire(wire)
            assert (
                expected.session_id,
                expected.accepted,
                expected.flagged,
                expected.risk_factor,
                expected.reject_reason,
            ) == (
                observed.session_id,
                observed.accepted,
                observed.flagged,
                observed.risk_factor,
                observed.reject_reason,
            )
            # Provenance: absent without an arm, present with one.
            assert expected.fused_flagged is None
            assert expected.fusion_cell is None
            assert observed.fused_flagged is not None
            assert observed.fusion_cell in {c.value for c in AgreementCell}
            assert 0.0 <= observed.second_probability <= 1.0

    def test_session_snapshot_carries_fused_verdict(
        self, trained, fusion_model, small_dataset
    ):
        inner = ScoringService(trained, fusion=FusionArm(fusion_model))
        sessions = SessionScoringService(inner, ttl_seconds=1e9)
        event = SessionEvent(
            session_id="fused-sid",
            event_type=EventType.PAGE_LOAD,
            seq=0,
            timestamp=0.0,
            user_agent=str(small_dataset.user_agents[0]),
            values=tuple(int(v) for v in small_dataset.features[0]),
        )
        observation = sessions.observe_event(event)
        assert observation.verdict.accepted
        assert observation.verdict.fused_flagged is not None
        snapshot = sessions.session_snapshot("fused-sid")
        fused = snapshot["fused_verdict"]
        assert set(fused) == {
            "fused_flagged",
            "cell",
            "second_probability",
            "second_lift",
        }
        assert fused["cell"] in {c.value for c in AgreementCell}


# ----------------------------------------------------------------------
# HTTP surface


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
            "CONTENT_LENGTH": str(len(body)),
            "wsgi.input": io.BytesIO(body),
        }
    )
    chunks = app(environ, start_response)
    return captured["status"], captured["headers"], b"".join(chunks)


class TestFusionEndpoints:
    @pytest.fixture(scope="class")
    def app(self, trained, fusion_model):
        service = ScoringService(
            trained,
            validator=PayloadValidator(dedup_window=0),
            fusion=FusionArm(fusion_model),
        )
        return CollectionApp(service)

    def _envelope(self, small_dataset, idx=0, **context):
        wire = next(iter_wire_payloads(small_dataset.rows(idx, idx + 1)))
        envelope = json.loads(wire)
        envelope.update(context)
        return json.dumps(envelope).encode("utf-8")

    def test_check_without_fusion_is_404(self, trained):
        app = CollectionApp(ScoringService(trained))
        status, _, body = _request(app, "POST", "/check", b"{}")
        assert status == "404 Not Found"
        assert json.loads(body)["error"] == "fusion not enabled"
        status, _, _ = _request(app, "GET", "/fusion")
        assert status == "404 Not Found"

    def test_check_returns_fused_verdict(self, app, small_dataset):
        body = self._envelope(
            small_dataset, day="2023-06-01", untrusted_ip=True
        )
        status, _, response = _request(app, "POST", "/check", body)
        assert status == "200 OK"
        document = json.loads(response)
        assert document["accepted"]
        assert isinstance(document["fused_flagged"], bool)
        assert document["fusion_cell"] in {c.value for c in AgreementCell}
        assert 0.0 <= document["second_probability"] <= 1.0

    def test_check_rejects_bad_day(self, app, small_dataset):
        body = self._envelope(small_dataset, day="not-a-date")
        status, _, response = _request(app, "POST", "/check", body)
        assert status == "400 Bad Request"
        assert json.loads(response)["error"] == "bad day"

    def test_check_rejects_malformed_body(self, app):
        status, _, response = _request(app, "POST", "/check", b"not json")
        assert status == "400 Bad Request"
        assert json.loads(response)["error"] == "malformed body"

    # The floor keeps the plain test above under its own id; the two
    # hostile bodies ride in a parametrised sibling.
    @pytest.mark.parametrize(
        "body, error",
        [
            (b'{"sid":' + b"[" * 1100, "malformed body"),  # RecursionError
            (
                b'{"sid":"abcdefgh12345678","ua":"Mozilla/5.0",'
                b'"f":[1e999],"g":[]}',
                None,  # parses (inf); the wire validator refuses it
            ),
        ],
        ids=["nested-brackets", "overflow"],
    )
    def test_check_answers_a_hostile_body_400(self, app, body, error):
        status, _, response = _request(app, "POST", "/check", body)
        assert status == "400 Bad Request"
        if error is not None:
            assert json.loads(response)["error"] == error

    def test_fusion_status_endpoint(self, app):
        status, _, body = _request(app, "GET", "/fusion")
        assert status == "200 OK"
        document = json.loads(body)
        assert document["enabled"]
        assert set(document["cells"]) == {c.value for c in AgreementCell}
        assert document["model"]["nodes"] > 0

    def test_metrics_include_fusion_counters(self, app, small_dataset):
        _request(
            app, "POST", "/check", self._envelope(small_dataset, idx=1)
        )
        status, _, body = _request(app, "GET", "/metrics")
        assert status == "200 OK"
        text = body.decode("utf-8")
        assert "polygraph_fusion_enabled 1" in text
        assert "polygraph_fusion_verdicts_total" in text
        assert 'polygraph_fusion_cell_total{cell="agree_benign"}' in text


# ----------------------------------------------------------------------
# CLI


class TestFusionCli:
    def test_fuse_train_and_status(self, trained, tmp_path, capsys):
        from repro.cli import main

        model_path = tmp_path / "model.json"
        trained.save(model_path)
        fusion_path = tmp_path / "fusion.json"
        assert (
            main(
                [
                    "fuse",
                    "train",
                    str(model_path),
                    str(fusion_path),
                    "--sessions",
                    "3000",
                ]
            )
            == 0
        )
        assert fusion_path.exists()
        out = capsys.readouterr().out
        assert "propagated weak tags over" in out
        assert main(["fuse", "status", str(fusion_path)]) == 0
        out = capsys.readouterr().out
        assert "fusion model over" in out
        assert "pipeline digest" in out

    def test_serve_fusion_rejects_shards(self, trained, tmp_path, capsys):
        from repro.cli import main

        model_path = tmp_path / "model.json"
        trained.save(model_path)
        rc = main(
            [
                "serve",
                str(model_path),
                "--fusion",
                "whatever.json",
                "--shards",
                "2",
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("serve: --fusion with --shards")
