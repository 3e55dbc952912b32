"""The fusion arm on the batched runtime is the per-request arm.

:class:`RuntimeScoringService` consults an attached fusion arm once a
batch's verdicts are decided, in input order, outside the verdict
cache.  Whatever the traffic (repeats, cache misses, rejects, unknown
releases) and however it is cut into batches, the runtime must answer
what :class:`ScoringService` answers wire by wire: the same cluster
fields, the same fused fields, the same arm counters — through
``score_rows``, through ``POST /check`` with the risk engine's tags,
and through the session layer's sticky ``fused_verdict``.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.browsers.useragent import Vendor, format_user_agent
from repro.core.pipeline import BrowserPolygraph
from repro.fusion import FusionArm, FusionModel
from repro.fusion.policy import (
    FusionGuardrailConfig,
    FusionPolicy,
    FusionPolicyConfig,
)
from repro.runtime.service import RuntimeConfig, RuntimeScoringService
from repro.service.api import CollectionApp
from repro.service.scoring import ScoringService
from repro.sessions import SessionScoringService
from repro.traffic.events import EventStreamConfig, build_event_streams
from repro.traffic.replay import iter_wire_payloads

from tests.event_shapes import (
    build_traffic,
    cut_batches,
    scenario_streams,
    sessions_state,
    traffic,
)

_DAYS = [None, date(2023, 3, 5), date(2023, 9, 1)]
_TAGS = [None, (False, False), (True, False), (False, True), (True, True)]
_POOL = 24

# Wires every scoring path refuses, each for another reason.
_REJECTS = [
    b"not json",
    b'{"sid":"r","ua":"Mozilla/5.0","f":[1,2,3]}',
    b'{"sid":"","ua":"x","f":[]}',
    b"{" + b" " * 1100 + b"}",
]


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
def pool(small_dataset):
    documents = [json.loads(w) for w in iter_wire_payloads(small_dataset, _POOL)]
    unknown = format_user_agent(Vendor.CHROME, 400)
    return documents, unknown


def _twins(polygraph, fusion_model, strict, cache_entries):
    """A reference and a runtime, each with its own arm.  A ``strict``
    arm calls almost every opinion fraud-grade, so its guardrails
    disable it a few verdicts in, mid-batch."""
    # Only count-driven guardrails: a latency limit would make the two
    # arms' disables depend on the host's speed.
    guardrails = FusionGuardrailConfig(
        max_mean_latency_ms=1e9, min_verdicts=3 if strict else 10**9
    )
    policy = None
    if strict:
        policy = FusionPolicy(
            FusionPolicyConfig(second_opinion_lift=1e-6, second_only_lift=1e-6)
        )
    reference = ScoringService(polygraph)
    reference.attach_fusion(
        FusionArm(fusion_model, policy=policy, guardrails=guardrails)
    )
    runtime = RuntimeScoringService(
        polygraph, config=RuntimeConfig(cache_entries=cache_entries)
    )
    runtime.attach_fusion(
        FusionArm(fusion_model, policy=policy, guardrails=guardrails)
    )
    return reference, runtime


def _fields(verdict) -> dict:
    fields = dataclasses.asdict(verdict)
    del fields["latency_ms"]
    return fields


def _check(app, body: bytes):
    """``POST /check`` through the app: status and document, no latency."""
    status, _, payload = app.handle("POST", "/check", body)
    document = json.loads(payload)
    document.pop("latency_ms", None)
    return status, document


_ITEM = st.tuples(
    st.sampled_from(["new", "replay", "unknown", "reject"]),
    st.integers(0, 1 << 16),
)
_STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("batch"),
            st.lists(_ITEM, min_size=1, max_size=24),
            st.sampled_from(_DAYS),
            st.sampled_from(_TAGS),
        ),
        st.tuples(
            st.just("check"),
            st.lists(_ITEM, min_size=1, max_size=1),
            st.sampled_from(_DAYS),
            st.sampled_from(_TAGS),
        ),
    ),
    min_size=1,
    max_size=12,
)


class TestTheRuntimeArmIsThePerRequestArm:
    def test_verdicts_checks_and_counters_match(self, polygraph, fusion_model, pool):
        documents, unknown = pool
        example = itertools.count()

        @settings(max_examples=60, deadline=None)
        @given(
            steps=_STEPS,
            strict=st.booleans(),
            cache_entries=st.sampled_from([0, 8, 8192]),
        )
        def check(steps, strict, cache_entries):
            reference, runtime = _twins(polygraph, fusion_model, strict, cache_entries)
            apps = CollectionApp(reference), CollectionApp(runtime)
            nonce = next(example)
            sent = []

            def document_of(kind, pick, number):
                if kind == "reject":
                    return None
                if kind == "replay" and sent:
                    return sent[pick % len(sent)]
                # A pool fingerprint under a new id: a miss on first
                # sight, a cache hit after (unless the cache is off or
                # has evicted it).
                document = dict(documents[pick % len(documents)])
                document["sid"] = f"x{nonce}-{number}"
                if kind == "unknown":
                    document["ua"] = unknown
                sent.append(document)
                return document

            numbers = itertools.count()
            try:
                for route, items, day, tags in steps:
                    chosen = [
                        document_of(kind, pick, next(numbers)) for kind, pick in items
                    ]
                    if route == "check":
                        (document,) = chosen
                        if document is None:
                            body = _REJECTS[items[0][1] % len(_REJECTS)]
                        else:
                            envelope = dict(document)
                            if tags is not None:
                                envelope["untrusted_ip"] = tags[0]
                                envelope["untrusted_cookie"] = tags[1]
                            if day is not None:
                                envelope["day"] = day.isoformat()
                            body = json.dumps(envelope).encode("utf-8")
                        assert _check(apps[1], body) == _check(apps[0], body)
                        continue
                    wires = [
                        _REJECTS[pick % len(_REJECTS)] if document is None
                        else json.dumps(document, separators=(",", ":")).encode()
                        for document, (_, pick) in zip(chosen, items)
                    ]
                    expected = [
                        reference.score_wire(wire, day=day, tags=tags)
                        for wire in wires
                    ]
                    got = runtime.score_rows(wires, None, None, day, tags)
                    assert [_fields(v) for v in got] == [_fields(v) for v in expected]
                assert (
                    runtime.fusion.status_dict() == reference.fusion.status_dict()
                )
                assert (runtime.scored_count, runtime.flagged_count) == (
                    reference.scored_count,
                    reference.flagged_count,
                )
            finally:
                runtime.shutdown()

        check()

    def test_a_cached_verdict_carries_no_fused_fields(
        self, polygraph, fusion_model, pool
    ):
        documents, _ = pool
        _, runtime = _twins(polygraph, fusion_model, False, 8192)

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
    def test_sessions_over_either_service_agree(
        self, polygraph, fusion_model, small_dataset
    ):
        candidates = scenario_streams(
            build_event_streams(small_dataset, EventStreamConfig(seed=5)),
            per_scenario=2,
        )
        example = itertools.count()
        sticky = []

        @settings(max_examples=40, deadline=None)
        @given(drawn=traffic(len(candidates)), day=st.sampled_from(_DAYS))
        def check(drawn, day):
            reference, runtime = _twins(polygraph, fusion_model, False, 8192)
            bounds = dict(
                ttl_seconds=drawn["ttl_seconds"], max_sessions=drawn["max_sessions"]
            )
            expected_side = SessionScoringService(reference, **bounds)
            runtime_side = SessionScoringService(runtime, **bounds)
            wires = build_traffic(candidates, nonce=f"f{next(example)}", **drawn)
            try:
                for batch in cut_batches(wires, drawn["cuts"]):
                    got = runtime_side.observe_many(batch, day=day)
                    expected = expected_side.observe_many(batch, day=day)
                    assert [
                        (o.to_dict(), _fields(o.verdict)) for o in got
                    ] == [(o.to_dict(), _fields(o.verdict)) for o in expected]
                assert sessions_state(runtime_side) == sessions_state(expected_side)
                for session_id in runtime_side.tracker.active_ids():
                    snapshot = runtime_side.session_snapshot(session_id)
                    assert snapshot == expected_side.session_snapshot(session_id)
                    if snapshot is not None:  # not expired
                        sticky.append("fused_verdict" in snapshot)
                assert (
                    runtime.fusion.status_dict() == reference.fusion.status_dict()
                )
            finally:
                runtime.shutdown()

        check()
        # The property held with sticky fused verdicts to compare.
        assert sum(sticky) > len(sticky) // 2, (sum(sticky), len(sticky))
