"""The fusion arm on the batched runtime is the per-request arm.

:class:`RuntimeScoringService` consults an attached fusion arm once a
batch's verdicts are decided, in input order, outside the verdict
cache.  That it answers what :class:`ScoringService` answers wire by
wire — cluster fields, fused fields, arm counters, ``POST /check`` with
the risk engine's tags, a strict arm disabling mid-batch, the session
layer's sticky ``fused_verdict`` — is the oracle's
(``tests/oracle.py``); here it runs on traces spelled for the arm.  And
a cached verdict carries no fused fields of its own.
"""

from __future__ import annotations

import json

import pytest

from repro.core.pipeline import BrowserPolygraph
from repro.fusion import FusionArm, FusionModel
from repro.fusion.policy import FusionGuardrailConfig
from repro.runtime.service import RuntimeConfig, RuntimeScoringService
from repro.traffic.replay import iter_wire_payloads

from tests.oracle import check, expected_fusion


@pytest.fixture(scope="module")
def polygraph(trained, tmp_path_factory):
    """A private copy: every arm bound to it leaves a retrain listener."""
    path = tmp_path_factory.mktemp("fusion") / "model.json"
    trained.save(path)
    return BrowserPolygraph.load(path)


@pytest.fixture(scope="module")
def fusion_model(polygraph, small_dataset):
    return FusionModel.train(small_dataset.rows(0, 6_000), polygraph.cluster_model)


@pytest.fixture(scope="module")
def documents(small_dataset):
    return [json.loads(w) for w in iter_wire_payloads(small_dataset, 1)]


class TestTheRuntimeArmIsThePerRequestArm:
    def test_verdicts_checks_and_counters_match(self, oracle_world):
        """Repeats, misses, rejects and unknown releases, ``/check`` with
        every tag pair and day, a strict arm disabled a few verdicts in,
        mid-batch, and a plain one: the fused fields and arm counters
        of the per-request arm."""
        picks = [
            (kind, 3 * i)
            for i, kind in enumerate(("row", "replay", "unknown", "bad_json") * 12)
        ]
        for fusion, cache_entries in (("strict", 8), ("plain", 0), ("plain", 8192)):
            check(
                oracle_world, collects=picks, checks=[(n, n % 5) for n in range(8)],
                lanes=["collect", "check"], cuts=[24, 1, 5], fusion=fusion,
                cache_entries=cache_entries,
            )

    def test_a_cached_verdict_carries_no_fused_fields(
        self, polygraph, fusion_model, documents
    ):
        runtime = RuntimeScoringService(
            polygraph, config=RuntimeConfig(cache_entries=8192)
        )
        runtime.attach_fusion(
            FusionArm(
                fusion_model,
                guardrails=FusionGuardrailConfig(
                    max_mean_latency_ms=1e9, min_verdicts=10**9
                ),
            )
        )

        def wire(session_id):
            return json.dumps(dict(documents[0], sid=session_id)).encode()

        try:
            fused = runtime.score_wire(wire("cache-0"), tags=(True, True))
            assert fused.fusion_cell is not None
            runtime.fusion = None
            plain = runtime.score_wire(wire("cache-1"))
            assert runtime.cache_hit_rate == 0.5
            assert (
                plain.fused_flagged, plain.fusion_cell,
                plain.second_probability, plain.second_lift,
            ) == (None, None, None, None)
            assert (plain.flagged, plain.risk_factor) == (
                fused.flagged, fused.risk_factor,
            )
        finally:
            runtime.shutdown()


class TestStickyFusedVerdicts:
    def test_sessions_over_either_service_agree(self, oracle_world):
        """Every stream of every scenario, with a fusion arm: the
        session layer's sticky ``fused_verdict`` is the one the
        per-request arm's verdicts make, follow-ups included."""
        for max_sessions in (3, 100_000):
            reference = check(
                oracle_world, sessions=[(i, None) for i in range(15)], fusion="plain",
                cuts=[1, 8, 256], keep_order=False, max_sessions=max_sessions,
            )["reference"]
            # The property held with sticky fused verdicts to compare.
            assert len(reference.sessions.folded) > 15
            assert len(expected_fusion(reference.sessions.folded, max_sessions)) == min(
                max_sessions, 15
            )
