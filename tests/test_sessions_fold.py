"""The batch fold against the frozen per-event fold, case by case.

``_fold_rows`` folds a batch under one lock span over tuple-backed
records and lazily allocated per-session sets; the frozen fold in
:mod:`tests.parent_fold` does none of that.  Any cut, any bounds and a
sweep inside a batch are the oracle's (``tests/test_oracle.py``); here
its cases: a drawn search with a sweep every other touch, traces
spelled out, the aggregates, and a follow-up's provenance.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fusion.arm import FusionArm
from repro.fusion.model import FusionModel
from repro.service.scoring import ScoringService, Verdict
from repro.sessions import SessionScoringService
from repro.sessions import tracker as tracker_module
from repro.sessions.envelope import inner_wire
from repro.sessions.tracker import EventRecord, SessionState
from repro.traffic.events import (
    EventStreamConfig,
    EventType,
    SessionEvent,
    build_event_streams,
)

from tests import parent_fold
from tests.oracle import (
    HOSTILE_SHAPES,
    build_trace,
    check,
    run_oracle,
    sessions_state,
    traces,
)
from tests.parent_fold import ParentFoldService, ParentSessionState

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

_T0 = 1_000.0
_TTL = 600.0


@pytest.fixture(scope="module")
def streams(small_dataset, trained):
    table = trained.cluster_model.ua_to_cluster

    def donor_ok(victim_key, donor_key):
        victim, donor = table.get(victim_key), table.get(donor_key)
        return victim is not None and donor is not None and victim != donor

    return build_event_streams(
        small_dataset, EventStreamConfig(seed=11), donor_ok=donor_ok
    )


class TestFoldManyAgainstTheFrozenFold:
    def test_any_cut_any_bounds(self, oracle_world):
        """Every scenario and hostile shape, cut fine and coarse, under
        room for one session, three, or all, a TTL that expires sessions
        mid-stream, with and without an event log (the drawn cuts and
        bounds are ``tests/test_oracle.py``'s)."""
        sessions = [(i % 15, shape) for i, shape in enumerate(sorted(HOSTILE_SHAPES))]
        sessions += [(i, None) for i in range(15)]
        for max_sessions, ttl_seconds, logged in (
            (1, _TTL, True), (3, _TTL, False), (100_000, 1e9, True)
        ):
            check(
                oracle_world, sessions=sessions, cuts=[1, 8, 40, 3], keep_order=False,
                replays=[5, 99], max_sessions=max_sessions, ttl_seconds=ttl_seconds,
                logged=logged,
            )

    def test_any_cut_any_bounds_with_a_sweep_every_other_touch(self, oracle_world):
        """The oracle's property, with the tracker's head sweep landing
        inside batches: at the real cadence of 512 touches no drawn
        batch holds one."""

        @settings(max_examples=40, deadline=None)
        @given(drawn=traces())
        def holds(drawn):
            run_oracle(oracle_world, build_trace(oracle_world, drawn))

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tracker_module, "_SWEEP_EVERY", 2)
            # The frozen tracker imported the cadence by value.
            patch.setattr(parent_fold, "_SWEEP_EVERY", 2)
            holds()

    def test_fold_is_a_batch_of_one(self, oracle_world):
        """Each event alone in its batch folds as the frozen per-event
        fold does."""
        check(oracle_world, sessions=[(i, None) for i in range(15)], cuts=[1])

    def test_a_session_expires_and_another_is_evicted_inside_one_batch(
        self, trained, streams
    ):
        """The cases the property has to find, spelled out once: with
        room for one session, a batch holding a second session's event
        between two of the first's, and a rejected event whose
        timestamp alone ages the first session past its TTL."""
        first, other = [s for s in streams if len(s.events) >= 3][:2]
        a0, a1, a2 = (
            dataclasses.replace(event, session_id="fold-a", timestamp=at)
            for event, at in zip(first.events, (_T0, _T0 + 1.0, _T0 + 2.0))
        )
        b0 = dataclasses.replace(other.first, session_id="fold-b", timestamp=_T0 + 0.5)
        late = dataclasses.replace(
            other.first, session_id="fold-c", timestamp=_T0 + 10 * _TTL
        )
        batches = [
            [a0.to_wire(), b0.to_wire(), a1.to_wire()],
            # A wire the inner service rejects still moves event time.
            [HOSTILE_SHAPES["wrong_arity"](late), a2.to_wire()],
        ]
        services = []
        for build in (SessionScoringService, ParentFoldService):
            service = build(ScoringService(trained), ttl_seconds=_TTL, max_sessions=1)
            documents = [
                [o.to_dict() for o in service.observe_many(batch)] for batch in batches
            ]
            services.append((documents, sessions_state(service)))
        assert services[0] == services[1]
        documents, (status, virtual_now, tracked, _) = services[0]
        assert [d["session_created"] for d in documents[0]] == [True, True, True]
        assert (documents[1][0]["accepted"], documents[1][1]["session_created"]) == (
            False, True,
        )
        assert (status["evicted_capacity"], status["evicted_ttl"]) == (2, 1)
        assert virtual_now == _T0 + 10 * _TTL
        assert [sid for sid, _ in tracked] == ["fold-a"]


class TestDistinctAggregates:
    _VECTORS = [(1, 2, 3), (1, 2, 4), (9, 9, 9)]
    _UA_KEYS = [None, "chrome-100", "firefox-90", "edge-100"]

    @staticmethod
    def _record(seq, ua_key):
        return EventRecord(seq, "focus", float(seq), False, None, 0, ua_key)

    @settings(max_examples=300, deadline=None)
    @given(
        seen=st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 3)), min_size=1, max_size=12
        )
    )
    def test_they_are_the_size_of_the_set_of_what_was_seen(self, seen):
        state = SessionState("s", 0.0, 0.0)
        frozen = ParentSessionState("s", 0.0, 0.0)
        vectors, ua_keys = set(), set()
        for seq, (v, u) in enumerate(seen):
            values, ua_key = self._VECTORS[v], self._UA_KEYS[u]
            vectors.add(values)
            ua_keys.add(ua_key)
            state.record_event(self._record(seq, ua_key), values, 4)
            frozen.record_event(self._record(seq, ua_key), values, 4)
            assert state.distinct_vectors == len(vectors)
            assert state.distinct_ua_keys == len(ua_keys - {None})
            assert state.to_dict() == frozen.to_dict()
            # A set exists exactly from the second distinct value on,
            # and then holds everything seen — the first value too.
            assert state._vector_set == (vectors if len(vectors) > 1 else None)
            assert state._ua_set == (
                ua_keys - {None} if len(ua_keys - {None}) > 1 else None
            )

    def test_a_ua_key_after_an_event_without_one(self):
        state = SessionState("s", 0.0, 0.0)
        for seq, ua_key in enumerate([None, "chrome-100", None, "chrome-100"]):
            state.record_event(self._record(seq, ua_key), (1,), 32)
        assert (state.distinct_ua_keys, state._ua_set) == (1, None)
        state.record_event(self._record(4, "firefox-90"), (1,), 32)
        assert state._ua_set == {"chrome-100", "firefox-90"}
        assert (state.distinct_vectors, state._vector_set) == (1, None)

    def test_records_and_states_carry_no_dict(self):
        record = self._record(0, "chrome-100")
        state = SessionState("s", 0.0, 0.0)
        assert not hasattr(record, "__dict__") and not hasattr(state, "__dict__")
        assert list(record.to_dict()) == [
            "seq", "event_type", "timestamp", "flagged", "risk_factor",
            "predicted_cluster", "ua_key",
        ]


class TestFollowUpVerdictKeepsItsProvenance:
    """A follow-up scores under ``sid@seq``; re-labelling it with the
    session's id must change that one field."""

    class _Stamping:
        """An inner service whose every verdict carries fusion and
        inferred-release provenance."""

        def __init__(self, trained) -> None:
            self.polygraph = trained
            self.cells = iter(["both", "primary_only", "second_only"])

        def score_rows(self, wires, rows, found, day=None):
            found[:] = [None] * len(wires)
            return [
                Verdict(
                    wire[8 : wire.index(b'"', 8)].decode(), True, False, None,
                    None, 0.0, fused_flagged=True, fusion_cell=next(self.cells),
                    second_probability=0.75, second_lift=2.5,
                    inferred_release="chrome-101", inferred_distance=1,
                )
                for wire in wires
            ]

    def test_every_field_but_the_id_survives(self, trained, streams):
        stream = next(s for s in streams if len(s.events) >= 3)
        sessions = SessionScoringService(self._Stamping(trained), ttl_seconds=1e9)
        observed = sessions.observe_many([e.to_wire() for e in stream.events[:3]])
        for observation, cell in zip(observed, ["both", "primary_only", "second_only"]):
            verdict = observation.verdict
            assert verdict.session_id == stream.session_id
            assert (verdict.fused_flagged, verdict.fusion_cell) == (True, cell)
            assert (verdict.second_probability, verdict.second_lift) == (0.75, 2.5)
            assert (verdict.inferred_release, verdict.inferred_distance) == (
                "chrome-101", 1,
            )
        # The sticky fusion state tracks the latest event, follow-ups too.
        fused = sessions.session_snapshot(stream.session_id)["fused_verdict"]
        assert (fused["fused_flagged"], fused["cell"]) == (True, "second_only")

    def test_a_fusion_armed_service_sees_the_follow_up(self, trained, small_dataset):
        model = FusionModel.train(small_dataset.rows(0, 6_000), trained.cluster_model)
        armed = ScoringService(trained, fusion=FusionArm(model))
        twin = ScoringService(trained, fusion=FusionArm(model))
        sessions = SessionScoringService(armed, ttl_seconds=1e9)
        events = [
            SessionEvent(
                "fused-follow-up", kind, seq, float(seq),
                str(small_dataset.user_agents[row]),
                tuple(int(v) for v in small_dataset.features[row]),
            )
            for seq, (kind, row) in enumerate(
                [(EventType.PAGE_LOAD, 0), (EventType.FOCUS, 1)]
            )
        ]
        first, follow_up = sessions.observe_many([e.to_wire() for e in events])
        expected = twin.score_wire(inner_wire(events[1]))
        assert expected.fused_flagged is not None
        assert follow_up.verdict == dataclasses.replace(
            expected,
            session_id="fused-follow-up",
            latency_ms=follow_up.verdict.latency_ms,
        )
        fused = sessions.session_snapshot("fused-follow-up")["fused_verdict"]
        assert fused == {
            "fused_flagged": bool(
                first.verdict.fused_flagged or expected.fused_flagged
            ),
            "cell": expected.fusion_cell,
            "second_probability": expected.second_probability,
            "second_lift": expected.second_lift,
        }

    def test_a_plain_event_is_not_mistaken_for_a_follow_up(self, trained):
        sessions = SessionScoringService(self._Stamping(trained), ttl_seconds=1e9)
        event = SessionEvent("solo", EventType.PAGE_LOAD, 0, 1.0, "ua", (1, 2))
        verdict = sessions.observe_wire(event.to_wire()).verdict
        assert (verdict.session_id, verdict.fusion_cell) == ("solo", "both")
