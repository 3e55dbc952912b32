"""Event-stream sessions: generation, tracking, revision, API."""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys
import threading
import time
from collections import OrderedDict
from urllib.request import urlopen

import numpy as np
import pytest
from hypothesis import given, settings

from repro.browsers.profiles import BrowserProfile
from repro.browsers.useragent import Vendor
from repro.core.pipeline import BrowserPolygraph
from repro.fingerprint.script import CollectionScript
from repro.runtime.service import RuntimeScoringService
from repro.service.aingest import AsyncIngestServer
from repro.service.api import CollectionApp
from repro.service.scoring import ScoringService
from repro.sessions import (
    RevisionReason,
    SessionEventLog,
    SessionScoringService,
    SessionTracker,
    classify_revision,
)
from repro.sessions.envelope import (
    EnvelopeParser,
    _derived_session_id,
    inner_wire,
)
from repro.sessions.tracker import _SWEEP_EVERY, EventRecord
from repro.traffic.events import (
    MAX_EVENT_TIMESTAMP,
    EventStreamConfig,
    EventType,
    SessionEvent,
    StreamScenario,
    build_event_streams,
    interleave_events,
)

from tests.exposition_check import collected
from tests.oracle import (
    HOSTILE_SHAPES,
    NEVER_MEMOIZED,
    build_traffic,
    differential,
    first_difference,
    scenario_streams,
    sessions_state,
    traffic,
    validator_state,
)

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture(scope="module")
def streams(small_dataset, trained):
    """Event streams whose engine-swap donors are guaranteed cross-cluster."""
    table = trained.cluster_model.ua_to_cluster

    def donor_ok(victim_key, donor_key):
        victim, donor = table.get(victim_key), table.get(donor_key)
        return victim is not None and donor is not None and victim != donor

    return build_event_streams(
        small_dataset, EventStreamConfig(seed=11), donor_ok=donor_ok
    )


def _touch(tracker, session_id):
    """What the fold does for one event: touch the session at the clock."""
    with tracker._lock:
        return tracker._touch_locked(session_id, tracker._clock())


def _surface_changes(stream) -> int:
    """Events whose vector differs from their predecessor's."""
    return sum(a.values != b.values for a, b in zip(stream.events, stream.events[1:]))


def _session_service(trained, **kwargs):
    # TTL spans the whole simulated window: these tests feed streams
    # one at a time rather than in global timestamp order, and the
    # tracker ages sessions in event time (TTL semantics have their own
    # tests against an explicit clock).
    kwargs.setdefault("ttl_seconds", 1e9)
    return SessionScoringService(ScoringService(trained), **kwargs)


# ----------------------------------------------------------------------
# dataset timestamps (satellite: Session.timestamp plumbing)


class TestDatasetTimestamps:
    def test_generator_emits_timestamps(self, small_dataset):
        ts = small_dataset.timestamps
        assert ts is not None and ts.dtype == np.float64
        assert ts.shape[0] == len(small_dataset)
        # Each timestamp falls inside its row's calendar day.
        day_start = small_dataset.days.astype("datetime64[s]").astype(np.int64)
        offsets = ts - day_start
        assert (offsets >= 0).all() and (offsets < 86_400).all()

    def test_row_carries_timestamp(self, small_dataset):
        session = small_dataset.row(0)
        assert session.timestamp == pytest.approx(
            float(small_dataset.timestamps[0])
        )

    def test_save_load_round_trip(self, small_dataset, tmp_path):
        path = tmp_path / "ds.npz"
        subset = small_dataset.rows(0, 50)
        subset.save(str(path))
        loaded = type(small_dataset).load(str(path))
        np.testing.assert_allclose(loaded.timestamps, subset.timestamps)

    def test_concatenate_drops_timestamps_when_any_part_lacks_them(
        self, small_dataset
    ):
        a = small_dataset.rows(0, 10)
        b = small_dataset.rows(10, 20)
        both = type(small_dataset).concatenate([a, b])
        assert both.timestamps is not None and both.timestamps.shape[0] == 20
        from dataclasses import replace

        stripped = replace(b, timestamps=None)
        mixed = type(small_dataset).concatenate([a, stripped])
        assert mixed.timestamps is None


# ----------------------------------------------------------------------
# event model and stream generation


class TestEventStreams:
    def test_wire_round_trip(self):
        event = SessionEvent(
            session_id="sid-1",
            event_type=EventType.FORM_FILL,
            seq=2,
            timestamp=1234.5,
            user_agent="Mozilla/5.0 (X11; Linux x86_64) Test/1.0",
            values=(1, 2, 3),
            suspicious_globals=("evil",),
        )
        parsed = SessionEvent.from_wire(event.to_wire())
        assert parsed == event

    def test_core_wire_matches_single_vector_payload(self):
        event = SessionEvent(
            session_id="sid-1",
            event_type=EventType.PAGE_LOAD,
            seq=0,
            timestamp=0.0,
            user_agent="ua",
            values=(4, 5),
        )
        assert event.core_wire() == event.payload().to_wire()
        body = json.loads(event.core_wire())
        assert set(body) == {"sid", "ua", "f"}

    def test_malformed_wire_raises(self):
        with pytest.raises(ValueError):
            SessionEvent.from_wire(b"not json")
        with pytest.raises(ValueError):
            SessionEvent.from_wire(b'{"sid":"x"}')

    def test_streams_cover_every_row(self, streams, small_dataset):
        assert len(streams) == len(small_dataset)
        assert [s.row_index for s in streams] == list(range(len(streams)))

    def test_per_stream_invariants(self, streams):
        for stream in streams:
            assert stream.events[0].event_type is EventType.PAGE_LOAD
            assert [e.seq for e in stream.events] == list(
                range(len(stream.events))
            )
            timestamps = [e.timestamp for e in stream.events]
            assert timestamps == sorted(timestamps)
            assert len(set(timestamps)) == len(timestamps)

    def test_scenario_mix(self, streams):
        by_scenario = {}
        for stream in streams:
            by_scenario.setdefault(stream.scenario, []).append(stream)
        config = EventStreamConfig(seed=11)
        assert (
            len(by_scenario[StreamScenario.ENGINE_SWAP])
            == config.engine_swap_sessions
        )
        for stream in by_scenario[StreamScenario.ENGINE_SWAP]:
            assert _surface_changes(stream) >= 1
        for stream in by_scenario[StreamScenario.HIJACK_HANDOFF]:
            assert len({e.user_agent for e in stream.events}) == 2
        for stream in by_scenario[StreamScenario.BENIGN_RECOLLECT]:
            assert _surface_changes(stream) == 0
            assert len(stream.events) >= 2
        for stream in by_scenario[StreamScenario.SINGLE_SHOT]:
            assert len(stream.events) == 1


    def test_interleave_is_globally_ordered_and_seq_stable(self, streams):
        events = interleave_events(streams)
        assert len(events) == sum(len(s.events) for s in streams)
        timestamps = [e.timestamp for e in events]
        assert timestamps == sorted(timestamps)
        last_seq = {}
        for event in events:
            if event.session_id in last_seq:
                assert event.seq == last_seq[event.session_id] + 1
            last_seq[event.session_id] = event.seq


# ----------------------------------------------------------------------
# tracker


class TestSessionTracker:
    @staticmethod
    def _record(seq, ts, flagged=False, cluster=0):
        return EventRecord(
            seq=seq,
            event_type="page_load",
            timestamp=ts,
            flagged=flagged,
            risk_factor=None,
            predicted_cluster=cluster,
            ua_key="chrome-100",
        )

    def test_ttl_eviction(self):
        clock = {"now": 0.0}
        tracker = SessionTracker(ttl_seconds=10.0, clock=lambda: clock["now"])
        state, created = _touch(tracker, "a")
        assert created
        state.record_event(self._record(0, 0.0), (1,), 32)
        clock["now"] = 5.0
        _, created = _touch(tracker, "a")
        assert not created
        clock["now"] = 20.0
        _, created = _touch(tracker, "a")
        assert created  # expired entry was replaced
        assert tracker.evicted_ttl == 1

    def test_peek_does_not_create(self):
        tracker = SessionTracker(clock=lambda: 0.0)
        assert tracker.peek("missing") is None
        assert len(tracker) == 0

    def test_capacity_eviction_is_lru(self):
        clock = {"now": 0.0}
        tracker = SessionTracker(
            max_sessions=2, ttl_seconds=1e9, clock=lambda: clock["now"]
        )
        _touch(tracker, "a")
        _touch(tracker, "b")
        _touch(tracker, "a")  # refresh a
        _touch(tracker, "c")  # evicts b
        assert tracker.peek("b") is None
        assert tracker.peek("a") is not None
        assert tracker.evicted_capacity == 1

    def test_event_log_is_bounded(self):
        tracker = SessionTracker(
            max_events_per_session=3, clock=lambda: 0.0
        )
        state, _ = _touch(tracker, "a")
        for seq in range(10):
            state.record_event(
                self._record(seq, float(seq)), (seq,), tracker.max_events_per_session
            )
        assert [e.seq for e in state.events] == [7, 8, 9]
        assert state.event_count == 10
        assert state.distinct_vectors == 10

    def test_touches_evict_the_expired_head(self):
        clock = {"now": 0.0}
        tracker = SessionTracker(ttl_seconds=10.0, clock=lambda: clock["now"])
        for name in "abc":
            _touch(tracker, name)
        clock["now"] = 100.0
        # Other sessions' touches — never a touch of a, b or c, so lazy
        # expiry cannot be what removes them.
        for touch in range(_SWEEP_EVERY - 3):
            _touch(tracker, f"live-{touch % 7}")
        assert list(tracker._sessions) == [f"live-{i}" for i in (5, 6, 0, 1, 2, 3, 4)]
        assert tracker.evicted_ttl == 3

    def test_the_head_sweep_stops_at_the_first_live_session(self):
        clock = {"now": 95.0}
        tracker = SessionTracker(ttl_seconds=10.0, clock=lambda: clock["now"])
        _touch(tracker, "live")
        # Touched later, but its last event carried an older timestamp:
        # expired behind a live session.  The head sweep leaves it to
        # the lazy expiry.
        state, _ = _touch(tracker, "stale-behind")
        state.last_seen = 0.0
        clock["now"] = 100.0
        for _ in range(_SWEEP_EVERY):
            _touch(tracker, "other")
        assert list(tracker._sessions) == ["live", "stale-behind", "other"]

    def test_a_touch_does_not_walk_the_live_sessions(self):
        steps = itertools.count()

        class Counting(OrderedDict):
            def items(self):
                for item in super().items():
                    next(steps)
                    yield item

        tracker = SessionTracker(
            max_sessions=100_000, ttl_seconds=1e9, clock=lambda: 0.0
        )
        tracker._sessions = Counting()
        for number in range(50_000):
            _touch(tracker, f"s{number}")
        before = next(steps)
        for number in range(4 * _SWEEP_EVERY):
            _touch(tracker, f"s{number}")
        # Four sweeps looked at the head of the map, not at 50k entries.
        assert next(steps) - before - 1 <= 4
        assert len(tracker) == 50_000


# ----------------------------------------------------------------------
# revision classification


class TestClassifyRevision:
    def _classify(self, **overrides):
        kwargs = dict(
            prior_flagged=False,
            prior_risk=None,
            prior_cluster=1,
            prior_ua_key="chrome-100",
            event_flagged=False,
            event_risk=None,
            result=None,
            event_ua_key="chrome-100",
        )
        kwargs.update(overrides)
        return classify_revision(**kwargs)

    def test_consistent_event_is_no_revision(self):
        assert self._classify() is None

    def test_flag_raised(self):
        assert (
            self._classify(event_flagged=True, event_risk=3, prior_cluster=None)
            is RevisionReason.FLAG_RAISED
        )

    def test_risk_increase_requires_higher_risk(self):
        assert (
            self._classify(
                prior_flagged=True,
                prior_risk=2,
                prior_cluster=None,
                event_flagged=True,
                event_risk=5,
            )
            is RevisionReason.RISK_INCREASE
        )
        assert (
            self._classify(
                prior_flagged=True,
                prior_risk=5,
                prior_cluster=None,
                event_flagged=True,
                event_risk=2,
            )
            is None
        )

    def test_ua_change_outranks_flag(self):
        assert (
            self._classify(event_ua_key="firefox-90", event_flagged=True)
            is RevisionReason.UA_CHANGE
        )

    def test_flag_cleared_is_informational(self):
        reason = self._classify(
            prior_flagged=True, prior_risk=4, prior_cluster=None
        )
        assert reason is RevisionReason.FLAG_CLEARED


# ----------------------------------------------------------------------
# session scoring service


class TestSessionScoringService:
    def test_first_event_verdict_bit_identical(self, trained, streams):
        single = ScoringService(trained)
        sessions = _session_service(trained)
        for stream in streams[:300]:
            event = stream.first
            expected = single.score_wire(event.core_wire())
            observed = sessions.observe_wire(event.to_wire()).verdict
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

    def test_followup_events_not_deduplicated(self, trained, streams):
        sessions = _session_service(trained)
        stream = next(s for s in streams if len(s.events) >= 3)
        for event in stream.events:
            observation = sessions.observe_wire(event.to_wire())
            assert observation.verdict.accepted, observation.verdict
        snapshot = sessions.session_snapshot(stream.session_id)
        assert snapshot["event_count"] == len(stream.events)

    def test_engine_swap_detected_via_revision(self, trained, streams):
        sessions = _session_service(trained)
        swaps = [
            s for s in streams if s.scenario is StreamScenario.ENGINE_SWAP
        ]
        assert swaps
        for stream in swaps:
            # Invisible to the single-vector path...
            first_result = trained.detect_payload(stream.first.payload())
            assert not first_result.flagged
            revisions = []
            for event in stream.events:
                observation = sessions.observe_wire(event.to_wire())
                if observation.revision is not None:
                    revisions.append(observation.revision)
            # ...caught mid-session by the revision machinery.
            assert any(
                r.reason is RevisionReason.CLUSTER_FLIP and r.new_flagged
                for r in revisions
            ), stream.session_id
            snapshot = sessions.session_snapshot(stream.session_id)
            assert snapshot["flagged"]

    def test_benign_recollect_produces_no_revision(self, trained, streams):
        sessions = _session_service(trained)
        benign = [
            s
            for s in streams
            if s.scenario is StreamScenario.BENIGN_RECOLLECT
        ][:50]
        assert benign
        for stream in benign:
            first = sessions.observe_wire(stream.first.to_wire())
            if first.verdict.flagged:
                continue  # rare FP; sticky-flag semantics tested elsewhere
            for event in stream.events[1:]:
                observation = sessions.observe_wire(event.to_wire())
                assert observation.revision is None
                assert not observation.session_flagged

    def test_sticky_verdict_never_unflags(self, trained, streams):
        sessions = _session_service(trained)
        stream = next(
            s for s in streams if s.scenario is StreamScenario.ENGINE_SWAP
        )
        for event in stream.events:
            sessions.observe_wire(event.to_wire())
        flagged_snapshot = sessions.session_snapshot(stream.session_id)
        assert flagged_snapshot["flagged"]
        # Replay the clean first vector as a later event: still flagged.
        clean_again = SessionEvent(
            session_id=stream.session_id,
            event_type=EventType.RE_COLLECTION,
            seq=stream.events[-1].seq + 1,
            timestamp=stream.events[-1].timestamp + 1.0,
            user_agent=stream.first.user_agent,
            values=stream.first.values,
        )
        observation = sessions.observe_wire(clean_again.to_wire())
        assert observation.session_flagged
        risk_after = sessions.session_snapshot(stream.session_id)["risk_factor"]
        assert risk_after == flagged_snapshot["risk_factor"]

    def test_malformed_event_wire_rejected(self, trained):
        sessions = _session_service(trained)
        observation = sessions.observe_wire(b"garbage")
        assert not observation.verdict.accepted
        assert observation.verdict.reject_reason.startswith("malformed_event")

    def test_a_model_swap_starts_a_fresh_cluster_memo(
        self, trained, relabelled_model, streams
    ):
        """Install, then the same fingerprint in a new session: the
        recorded cluster is the live model's, not the memoized answer
        of the model it replaced."""
        polygraph = BrowserPolygraph(trained.config).install(trained.cluster_model)
        sessions = SessionScoringService(ScoringService(polygraph), ttl_seconds=1e9)
        first = streams[0].first

        def recorded(session_id):
            event = SessionEvent(
                session_id, first.event_type, 0, first.timestamp,
                first.user_agent, first.values,
            )
            assert sessions.observe_wire(event.to_wire()).verdict.accepted
            (record,) = sessions.session_snapshot(session_id)["events"]
            return record["predicted_cluster"]

        before = recorded("before-install")
        polygraph.install(relabelled_model)
        after = recorded("after-install")
        live = polygraph.detect_session(first.values, first.user_agent)
        assert after == live.predicted_cluster
        assert after == (before + 1) % trained.config.n_clusters

    @pytest.mark.parametrize("inner", ["per_request", "runtime"])
    def test_a_model_swap_re_bases_a_sessions_cluster(
        self, trained, relabelled_model, streams, inner
    ):
        """A session whose events straddle a model swap is not flipped:
        clusters of two models do not compare, so its cluster is re-based
        on the new model's, and the session's verdict stands."""
        polygraph = BrowserPolygraph(trained.config).install(trained.cluster_model)
        service = (
            ScoringService(polygraph) if inner == "per_request"
            else RuntimeScoringService(polygraph).start()
        )
        sessions = SessionScoringService(service, ttl_seconds=1e9)
        first = streams[0].first

        def observe(seq):
            return sessions.observe_wire(
                SessionEvent(
                    "straddles-a-swap", first.event_type, seq,
                    first.timestamp + seq, first.user_agent, first.values,
                ).to_wire()
            )

        try:
            assert observe(0).verdict.accepted
            polygraph.install(relabelled_model)
            after = [observe(1), observe(2)]
        finally:
            if inner == "runtime":
                service.shutdown()
        assert [o.revision for o in after] == [None, None]
        records = sessions.session_snapshot("straddles-a-swap")["events"]
        before = records[0]["predicted_cluster"]
        moved = (before + 1) % trained.config.n_clusters
        assert [r["predicted_cluster"] for r in records] == [before, moved, moved]

    @pytest.mark.parametrize("inner", ["per_request", "runtime"])
    def test_every_session_records_its_own_fingerprints_cluster(
        self, trained, streams, inner
    ):
        """Many distinct surfaces in a few batches: each session's
        record carries the cluster its own fingerprint scored to."""
        by_surface = {(s.first.values, s.first.user_agent): s.first for s in streams}
        firsts = list(by_surface.values())[:12]
        assert len(firsts) == 12
        service = (
            ScoringService(trained) if inner == "per_request"
            else RuntimeScoringService(trained).start()
        )
        sessions = SessionScoringService(service, ttl_seconds=1e9)
        for start in range(0, len(firsts), 3):
            sessions.observe_many([e.to_wire() for e in firsts[start : start + 3]])
        if inner == "runtime":
            service.shutdown()
        for event in firsts:
            (record,) = sessions.session_snapshot(event.session_id)["events"]
            live = trained.detect_session(event.values, event.user_agent)
            assert record["predicted_cluster"] == live.predicted_cluster
            assert record["ua_key"] == live.ua_key

    def test_collect(self, trained, streams):
        sessions = _session_service(trained)
        for stream in streams[:20]:
            for event in stream.events:
                sessions.observe_wire(event.to_wire())
        families = {key.partition("{")[0] for key in collected(sessions)}
        assert families >= {
            "polygraph_session_active",
            "polygraph_session_events_total",
            "polygraph_session_revisions_total",
            "polygraph_session_escalations_total",
            "polygraph_session_evictions_total",
            "polygraph_session_revision_reason_total",
        }

    def test_derived_session_id_respects_length_cap(self):
        from repro.service.ingest import MAX_SESSION_ID_LENGTH

        assert _derived_session_id("abc", 3) == "abc@3"
        long_sid = "x" * MAX_SESSION_ID_LENGTH
        derived = _derived_session_id(long_sid, 12)
        assert len(derived) <= MAX_SESSION_ID_LENGTH
        assert derived != _derived_session_id(long_sid, 13)


# ----------------------------------------------------------------------
# the envelope parser and its memo


def _fields(verdict):
    return (
        verdict.session_id,
        verdict.accepted,
        verdict.flagged,
        verdict.risk_factor,
        verdict.reject_reason,
        verdict.inferred_release,
        verdict.inferred_distance,
    )


def _full_parse(wire):
    """What the parser must return, worked out without a memo."""
    try:
        event = SessionEvent.from_wire(wire)
        return event, inner_wire(event)
    except ValueError:
        return None


def _memo_parse(parser, wire):
    try:
        return parser.parse(wire)
    except ValueError:
        return None


class TestEnvelopeParser:
    def test_memo_answers_equal_the_full_parse_for_every_shape(self, streams):
        parser = EnvelopeParser()
        sample = scenario_streams(streams, per_scenario=2)
        events = [event for stream in sample for event in stream.events]
        # Cold, then warm: the second pass meets every admitted tail.
        for _ in range(2):
            for event in events:
                wire = event.to_wire()
                assert parser.parse(wire) == _full_parse(wire)
                for name, shape in HOSTILE_SHAPES.items():
                    hostile = shape(event)
                    assert _memo_parse(parser, hostile) == _full_parse(hostile), name
        assert parser._memo  # and the canonical tails did get in

    def test_hits_skip_the_full_parse(self, streams, monkeypatch):
        full_parses = []
        from_wire = SessionEvent.from_wire
        monkeypatch.setattr(
            SessionEvent,
            "from_wire",
            classmethod(lambda cls, wire: full_parses.append(wire) or from_wire(wire)),
        )
        parser = EnvelopeParser()
        events = [e for s in streams[:400] for e in s.events]
        for event in events:
            wire = event.to_wire()
            assert parser.parse(wire) == (from_wire(wire), inner_wire(event))
        tails = {e.to_wire().partition(b',"ua":')[2] for e in events}
        assert len(full_parses) == len(tails) < len(events) / 2

    @pytest.mark.parametrize("name", NEVER_MEMOIZED)
    def test_non_canonical_envelopes_are_never_memoized(self, streams, name):
        parser = EnvelopeParser()
        stream = next(s for s in streams if len(s.events) >= 3)
        for _ in range(2):
            for event in stream.events:
                wire = HOSTILE_SHAPES[name](event)
                assert SessionEvent.from_wire(wire)  # it does parse
                parser.parse(wire)
        assert parser._memo == {}

    def test_memo_is_bounded(self, streams, monkeypatch):
        monkeypatch.setattr("repro.sessions.envelope._MEMO_LIMIT", 8)
        parser = EnvelopeParser()
        event = streams[0].first
        for number in range(50):
            values = (number,) + event.values[1:]
            distinct = SessionEvent(
                "s", event.event_type, 0, 1.0, event.user_agent, values
            )
            parser.parse(distinct.to_wire())
            assert 1 <= len(parser._memo) <= 8

    def test_first_event_parity_through_the_memo(self, trained, streams):
        """What reaches the inner service for a first event is its
        ``core_wire()``, memo hit or not, and the verdict is the
        one-shot service's, field for field."""
        handed = []

        class Recording(ScoringService):
            def score_rows(self, wires, rows, found, day=None):
                handed.extend(wires)
                return super().score_rows(wires, rows, found, day=day)

        sessions = SessionScoringService(Recording(trained), ttl_seconds=1e9)
        one_shot = ScoringService(trained)
        firsts = [stream.first for stream in streams[:600]]
        observed = sessions.observe_many([e.to_wire() for e in firsts])
        assert handed == [e.core_wire() for e in firsts]
        for event, observation in zip(firsts, observed):
            expected = one_shot.score_wire(event.core_wire())
            assert _fields(observation.verdict) == _fields(expected)
        assert len(sessions._envelopes._memo) < len(firsts) / 2


# ----------------------------------------------------------------------
# observe_many against one-at-a-time scoring


@pytest.fixture(scope="module", params=["per_request", "runtime"])
def twin_inners(request, trained):
    """Two identical inner services, fed identical wires for the whole
    module: whatever one remembers (dedup window, quarantine, caches)
    the other must remember too."""
    if request.param == "per_request":
        yield ScoringService(trained), ScoringService(trained)
    else:
        twins = (
            RuntimeScoringService(trained).start(),
            RuntimeScoringService(trained).start(),
        )
        yield twins
        for runtime in twins:
            runtime.shutdown()


class TestObserveManyDifferential:
    def test_any_split_equals_one_at_a_time(self, twin_inners, streams):
        candidates = scenario_streams(streams)
        example = itertools.count()

        @settings(max_examples=150, deadline=None)
        @given(drawn=traffic(len(candidates)))
        def check(drawn):
            wires = build_traffic(
                candidates, nonce=f"n{next(example)}", **drawn
            )
            bounds = dict(
                ttl_seconds=drawn["ttl_seconds"],
                max_sessions=drawn["max_sessions"],
            )
            batched = SessionScoringService(twin_inners[0], **bounds)
            sequential = SessionScoringService(twin_inners[1], **bounds)
            got, expected = differential(
                batched, sequential, wires, drawn["cuts"]
            )
            assert got == expected, first_difference(got, expected)
            assert sessions_state(batched) == sessions_state(sequential)
            assert validator_state(twin_inners[0].validator) == validator_state(
                twin_inners[1].validator
            )

        check()

    def test_observe_wire_and_observe_event_share_the_batch_core(
        self, trained, streams
    ):
        """One at a time or as one batch, an event goes through the one
        batch core: ``observe_wire`` is ``observe_many`` of one."""
        by_wire = _session_service(trained)
        by_batch = _session_service(trained)
        events = [
            e for s in scenario_streams(streams, per_scenario=2) for e in s.events
        ]
        one = [by_wire.observe_wire(e.to_wire()).to_dict() for e in events]
        two = [
            o.to_dict()
            for o in by_batch.observe_many([e.to_wire() for e in events])
        ]
        assert one == two
        assert sessions_state(by_wire) == sessions_state(by_batch)
        assert any(document["revision"] for document in one)

    def test_malformed_envelopes_never_reach_the_inner_service(self, trained):
        class Untouchable:
            def score_rows(self, wires, rows, found, day=None):
                assert not wires, "a malformed envelope was scored"
                return []

        sessions = SessionScoringService(Untouchable())
        event = SessionEvent("s", EventType.FOCUS, 1, 2.0, "ua", (1, 2))
        hostile = [
            HOSTILE_SHAPES[name](event)
            for name in ("truncated", "unknown_ev", "ts_overflow", "nested")
        ]
        observed = sessions.observe_many(hostile + [b"", b"[]", b"\xff"])
        assert [o.event_seq for o in observed] == [-1] * 7
        assert all(
            o.verdict.reject_reason.startswith("malformed_event: ")
            and not o.verdict.accepted
            for o in observed
        )
        assert sessions.events_total == 0 and sessions._virtual_now == 0.0

    def test_timestamps_outside_the_calendar_never_move_the_clock(
        self, trained, streams
    ):
        """Non-finite and far-future ``ts`` are typed rejects, cold and
        through the envelope memo, and the event clock stays finite."""
        sessions = _session_service(trained, ttl_seconds=1800.0)
        stream = next(s for s in streams if len(s.events) >= 3)
        names = ("ts_infinity", "ts_nan", "ts_1e308", "ts_far_future")
        # The second pass, under fresh ids, meets memoized tails.
        for session_id in ("cold", "warm"):
            for event in stream.events:
                event = dataclasses.replace(event, session_id=session_id)
                assert sessions.observe_wire(event.to_wire()).verdict.accepted
                for name in names:
                    observation = sessions.observe_wire(HOSTILE_SHAPES[name](event))
                    assert observation.verdict.reject_reason.startswith(
                        "malformed_event: "
                    ), name
            snapshot = sessions.session_snapshot(session_id)
            assert snapshot["event_count"] == len(stream.events)
        assert sessions._envelopes._memo
        assert sessions._virtual_now == max(
            round(event.timestamp, 3) for event in stream.events
        )

    def test_a_far_future_event_expires_no_other_session(self, trained):
        """Another client's far-future ``ts``, inside the calendar, moves
        the event clock no further than the wall clock: a flagged
        session stays flagged and is not opened again on its next event."""
        sessions = _session_service(trained, ttl_seconds=1800.0)
        chrome = BrowserProfile(Vendor.CHROME, 112)
        firefox = BrowserProfile(Vendor.FIREFOX, 110)

        def event(session_id, seq, ts, surface):
            fields = json.loads(
                CollectionScript()
                .run(surface.environment(), chrome.user_agent(), session_id)
                .to_wire()
            )
            kind = EventType.PAGE_LOAD if seq == 0 else EventType.FOCUS
            return SessionEvent(
                session_id, kind, seq, ts, fields["ua"], tuple(fields["f"])
            ).to_wire()

        now = time.time()
        opened = sessions.observe_wire(event("spoofed", 0, now - 60.0, firefox))
        assert opened.session_created and opened.session_flagged
        far = sessions.observe_wire(
            event("other", 0, MAX_EVENT_TIMESTAMP - 1.0, chrome)
        )
        assert far.verdict.accepted
        assert sessions._virtual_now <= time.time()
        follow = sessions.observe_wire(event("spoofed", 1, now - 30.0, chrome))
        assert follow.verdict.accepted and not follow.verdict.flagged
        assert not follow.session_created
        assert follow.session_flagged
        assert sessions.session_snapshot("spoofed")["event_count"] == 2

    def test_concurrent_batches_lose_nothing(self, trained, streams, monkeypatch):
        """More threads than cores, each batching its own sessions into
        one service while the shared envelope memo is cleared under
        them: every thread reads its own sessions' sequential answers
        and no event goes uncounted."""
        monkeypatch.setattr("repro.sessions.envelope._MEMO_LIMIT", 4)
        multi = [s for s in streams if len(s.events) >= 3][:48]
        shares = [multi[i::6] for i in range(6)]
        reference = _session_service(trained)
        expected = [
            [reference.observe_wire(e.to_wire()).to_dict() for s in share for e in s.events]
            for share in shares
        ]
        sessions = _session_service(trained)
        got = [None] * len(shares)

        def work(number):
            wires = [e.to_wire() for s in shares[number] for e in s.events]
            documents = []
            for start in range(0, len(wires), 5):
                batch = sessions.observe_many(wires[start : start + 5])
                documents.extend(o.to_dict() for o in batch)
            got[number] = documents

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=work, args=(n,)) for n in range(len(shares))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert got == expected
        assert sessions.events_total == sum(len(share) for share in expected)
        assert sessions.status_dict()["revision_reasons"] == (
            reference.status_dict()["revision_reasons"]
        )

    def test_a_dated_batch_is_one_inner_call_with_its_day(self, trained, streams):
        """A batch, dated or not, reaches the inner service as one
        ``score_rows`` call carrying the batch's day."""
        from datetime import date

        calls = []

        class Bulk(ScoringService):
            def score_rows(self, wires, rows, found, day=None):
                calls.append((len(wires), day))
                return super().score_rows(wires, rows, found, day=day)

        sessions = SessionScoringService(Bulk(trained), ttl_seconds=1e9)
        sessions.observe_many([s.first.to_wire() for s in streams[:3]])
        day = date(2024, 1, 2)
        sessions.observe_many([s.first.to_wire() for s in streams[3:6]], day=day)
        assert calls == [(3, None), (3, day)]


# ----------------------------------------------------------------------
# event log store


class TestSessionEventLog:
    @staticmethod
    def _append(log, sid, seq, ts, flagged=False):
        log.append(
            session_id=sid,
            event_type="page_load",
            seq=seq,
            timestamp=ts,
            ua_key="chrome-100",
            values=(1, 2, 3),
            flagged=flagged,
            risk=4 if flagged else None,
        )

    def test_seal_and_round_trip(self, tmp_path):
        log = SessionEventLog(tmp_path, segment_events=3)
        for seq in range(5):
            self._append(log, "a", seq, float(seq), flagged=seq == 4)
        stats = log.stats()
        assert stats["segments"] == 1
        assert stats["sealed_events"] == 3
        assert stats["buffered_events"] == 2
        events = log.window()
        assert [e["seq"] for e in events] == list(range(5))
        assert events[4]["flagged"] and events[4]["risk"] == 4
        assert events[0]["risk"] is None

    def test_the_buffer_is_sealed_at_its_default_bound(self, tmp_path):
        """A serve log buffers at most 4,096 events: the one that fills
        the buffer seals it into a segment."""
        log = SessionEventLog(tmp_path)
        assert log.segment_events == 4096
        for seq in range(4095):
            self._append(log, "a", seq, float(seq))
        assert log.stats()["buffered_events"] == 4095
        self._append(log, "a", 4095, 4095.0)
        stats = log.stats()
        assert stats["buffered_events"] == 0
        assert (stats["segments"], stats["sealed_events"]) == (1, 4096)

    def test_window_query(self, tmp_path):
        log = SessionEventLog(tmp_path, segment_events=2, window_seconds=50.0)
        for seq in range(6):
            self._append(log, f"s{seq}", 0, seq * 20.0)
        recent = log.window(seconds=50.0)
        assert all(r["ts"] >= 100.0 - 50.0 for r in recent)
        assert {r["sid"] for r in recent} == {"s3", "s4", "s5"}

    def test_prune_drops_whole_old_segments(self, tmp_path):
        """40 events over 200 s, a segment every 4, a 10 s window: each
        seal keeps only the segments with an event inside the window."""
        log = SessionEventLog(tmp_path, segment_events=4, window_seconds=10.0)
        for seq in range(40):
            self._append(log, f"s{seq}", 0, seq * 5.0)
        # The last seal (events at 180..195 s) drops all before it.
        assert log.stats()["segments"] == 1
        assert log.stats()["pruned_segments"] == 9
        assert sorted(p.name for p in tmp_path.glob("*.npz")) == ["events-000009.npz"]
        reopened = SessionEventLog(tmp_path, segment_events=4, window_seconds=10.0)
        assert [r["ts"] for r in reopened.window(seconds=1e9)] == [180.0, 185.0, 190.0, 195.0]

    def test_a_far_future_event_prunes_nothing(self, tmp_path):
        """A client's ts at the calendar's end moves no cutoff: the
        honest segments sealed after it stay on disk, across a reopen."""
        log = SessionEventLog(tmp_path, segment_events=2, window_seconds=60.0)
        now = time.time()
        self._append(log, "far", 0, MAX_EVENT_TIMESTAMP - 1.0)
        for seq in range(5):
            self._append(log, "a", seq, now - 10.0 + seq)
        log.seal()
        assert log.stats()["pruned_segments"] == 0
        assert len(list(tmp_path.glob("*.npz"))) == 3
        reopened = SessionEventLog(tmp_path, segment_events=2, window_seconds=60.0)
        for seq in range(5, 9):
            self._append(reopened, "a", seq, now - 10.0 + seq)
        assert reopened.stats()["pruned_segments"] == 0
        assert [r["seq"] for r in reopened.window() if r["sid"] == "a"] == list(range(9))

    def test_seal_flushes_the_buffer(self, tmp_path):
        log = SessionEventLog(tmp_path, segment_events=100)
        for seq in range(3):
            self._append(log, "a", seq, float(seq))
        log.seal()
        log.seal()  # nothing buffered: no empty segment
        assert log.stats()["segments"] == 1
        reopened = SessionEventLog(tmp_path, segment_events=100)
        assert [e["seq"] for e in reopened.window()] == [0, 1, 2]

    def test_manifest_survives_reopen(self, tmp_path):
        log = SessionEventLog(tmp_path, segment_events=2)
        for seq in range(4):
            self._append(log, "a", seq, float(seq))
        reopened = SessionEventLog(tmp_path, segment_events=2)
        assert reopened.stats()["segments"] == 2
        assert [e["seq"] for e in reopened.window()] == [0, 1, 2, 3]


# ----------------------------------------------------------------------
# HTTP surface


def _call(app, method, path):
    status, _, payload = app.handle(method, path)
    return status, json.loads(payload)


class TestSessionEndpoints:
    @pytest.fixture()
    def app(self, trained):
        service = ScoringService(trained)
        return CollectionApp(
            service, sessions=SessionScoringService(service)
        )

    def test_event_endpoint_round_trip(self, app, streams):
        stream = next(s for s in streams if len(s.events) >= 2)
        with AsyncIngestServer(app, port=0) as server:
            for event in stream.events:
                url = f"http://127.0.0.1:{server.port}/event"
                with urlopen(url, data=event.to_wire(), timeout=10) as response:
                    assert response.status == 202
                    document = json.loads(response.read())
                assert document["session_id"] == stream.session_id
                assert document["event_seq"] == event.seq
        status, document = _call(app, "GET", f"/session/{stream.session_id}")
        assert status == "200 OK"
        assert document["event_count"] == len(stream.events)

    def test_sessions_status_endpoint(self, app, streams):
        app.sessions.observe_wire(streams[0].first.to_wire())
        status, document = _call(app, "GET", "/sessions")
        assert status == "200 OK"
        assert document["events_total"] >= 1
        assert "revision_reasons" in document

    def test_unknown_session_404(self, app):
        status, document = _call(app, "GET", "/session/nope")
        assert status == "404 Not Found"

    def test_endpoints_404_without_session_layer(self, trained):
        app = CollectionApp(ScoringService(trained))
        for method, path in (
            ("POST", "/event"),
            ("GET", "/sessions"),
            ("GET", "/session/x"),
        ):
            status, document = _call(app, method, path)
            assert status == "404 Not Found"
            assert "session" in document["error"]

    def test_metrics_include_session_registry(self, app, streams):
        app.sessions.observe_wire(streams[0].first.to_wire())
        status, _, body = app.handle("GET", "/metrics")
        body = body.decode()
        assert status == "200 OK"
        assert "polygraph_session_active" in body
        assert "polygraph_session_events_total" in body
