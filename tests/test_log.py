"""What the scoring services and the session layer log, and the sealer
thread that keeps the seal off their request path."""

import os
import resource
import sys
import threading
import time
from datetime import date

import pytest

import repro.durable as durable
from repro.browsers.profiles import BrowserProfile
from repro.browsers.useragent import Vendor
from repro.fingerprint.script import CollectionScript
from repro.runtime.service import RuntimeScoringService
from repro.service.log import PENDING_SEGMENTS, SegmentLog
from repro.service.scoring import ScoringService
from repro.sessions import SessionScoringService
from repro.traffic.events import EventType, SessionEvent
from tests.exposition_check import collected
from tests.log_rows import DAY, collect_row, collect_wire, log_rows, open_log


class TestWhatTheServicesLog:
    def test_export_holds_the_collect_rows_only(self, trained, tmp_path):
        """Events are logged beside /collect rows, and retrain reads one
        fingerprint per session: the /collect rows."""
        log = open_log(tmp_path)
        service = RuntimeScoringService(trained, log=log)
        sessions = SessionScoringService(service, log=log, ttl_seconds=1e9)
        profile = BrowserProfile(Vendor.FIREFOX, 110)
        payload = CollectionScript().run(profile.environment(), profile.user_agent(), "ev")
        events = [
            SessionEvent("ev", EventType.PAGE_LOAD, seq, 100.0 + seq,
                         payload.user_agent, payload.values).to_wire()
            for seq in range(3)
        ]
        service.score_many([collect_wire("c-0"), collect_wire("c-1"), b"not json"])
        sessions.observe_rows(events)
        log.seal()
        rows = log_rows(log)
        assert [(r["sid"], r["kind"], r["seq"]) for r in rows] == [
            ("c-0", "collect", -1), ("c-1", "collect", -1),
            ("ev", "page_load", 0), ("ev", "page_load", 1), ("ev", "page_load", 2),
        ]
        assert [r["ts"] for r in rows[2:]] == [100.0, 101.0, 102.0]
        assert [str(s) for s in log.export_dataset().session_ids] == ["c-0", "c-1"]

    def test_a_row_is_dated_by_its_caller_or_else_the_clock(self, trained, tmp_path):
        log = SegmentLog(tmp_path, clock=date.today)
        service = ScoringService(trained, log=log)
        service.score_wire(collect_wire("dated"), day=date(2023, 6, 15))
        before = date.today()
        service.score_wire(collect_wire("undated"))
        log.seal()
        days = log.export_dataset().days.astype(object).tolist()
        assert days[0] == date(2023, 6, 15)
        assert before <= days[1] <= date.today()

    def test_an_undated_batch_needs_a_clock(self, tmp_path):
        log = SegmentLog(tmp_path)
        with pytest.raises(ValueError, match="clock"):
            log.append_many([collect_row("undated", 1.0)])
        log.append_many([collect_row("dated", 1.0)], DAY)
        log.seal()
        assert log.export_dataset().days.astype(object).tolist() == [DAY]

    def test_the_seal_is_off_the_request_path(self, trained, tmp_path, monkeypatch):
        """With every fsync slowed to 0.4 s, a /collect batch and an
        /event batch that each fill a segment return before its seal."""
        sealing = threading.Event()
        real_fsync = os.fsync

        def slow_fsync(fd):
            sealing.set()
            time.sleep(0.4)
            real_fsync(fd)

        log = open_log(tmp_path, segment_rows=4)
        service = RuntimeScoringService(trained, log=log)
        sessions = SessionScoringService(service, log=log, ttl_seconds=1e9)
        payload = CollectionScript().run(
            BrowserProfile(Vendor.CHROME, 112).environment(),
            BrowserProfile(Vendor.CHROME, 112).user_agent(), "slow",
        )
        events = [
            SessionEvent("slow", EventType.FOCUS, seq, time.time() + seq,
                         payload.user_agent, payload.values).to_wire()
            for seq in range(4)
        ]
        monkeypatch.setattr(durable.os, "fsync", slow_fsync)
        started = time.perf_counter()
        verdicts = service.score_many([collect_wire(f"fast-{i}") for i in range(4)])
        rows = sessions.observe_rows(events)
        elapsed = time.perf_counter() - started
        assert all(v.accepted for v in verdicts) and all(r[1].accepted for r in rows)
        assert elapsed < 0.4, elapsed  # one fsync of one seal takes longer
        assert sealing.wait(5.0)  # ... and a seal did start
        log.seal()
        monkeypatch.undo()
        assert [len(c["sid"]) for c in log.segments()] == [4, 4]

    def test_events_from_a_wrong_client_clock_keep_their_segment(self, trained, tmp_path):
        """Four /collect rows, then four /event rows whose client clock
        reads 10-13 s after the epoch, in 4-row segments: a segment is
        aged by when the log sealed it, so both stay, and the events
        keep the ts they were sent with."""
        log = open_log(tmp_path, segment_rows=4)
        service = RuntimeScoringService(trained, log=log)
        sessions = SessionScoringService(service, log=log, ttl_seconds=1e9)
        profile = BrowserProfile(Vendor.CHROME, 112)
        payload = CollectionScript().run(
            profile.environment(), profile.user_agent(), "skewed"
        )
        service.score_many([collect_wire(f"now-{i}") for i in range(4)])
        sessions.observe_rows([
            SessionEvent("skewed", EventType.FOCUS, seq, 10.0 + seq,
                         payload.user_agent, payload.values).to_wire()
            for seq in range(4)
        ])
        log.seal()
        assert [len(c["sid"]) for c in log.segments()] == [4, 4]
        assert collected(log)["polygraph_log_segments_pruned_total"] == 0
        assert [r["ts"] for r in log_rows(log)][4:] == [10.0, 11.0, 12.0, 13.0]

    def test_appends_from_many_threads_lose_no_row(self, tmp_path):
        """Eight appending threads, a 7-row segment and a short switch
        interval: every row reaches disk once, each thread's in order."""
        log = open_log(tmp_path, segment_rows=7, window_seconds=1e12)
        interval = sys.getswitchinterval()

        def append(worker):
            for batch in range(40):
                log.append_many(
                    collect_row(f"w{worker}", time.time(), seq=batch * 3 + i)
                    for i in range(3)
                )

        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=append, args=(w,)) for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            log.seal()
        finally:
            sys.setswitchinterval(interval)
        rows = log_rows(log)
        assert len(rows) == 8 * 40 * 3
        for worker in range(8):
            seqs = [r["seq"] for r in rows if r["sid"] == f"w{worker}"]
            assert seqs == list(range(120)), worker


class TestBounds:
    def test_a_slow_sealer_bounds_the_buffered_rows(self, tmp_path, monkeypatch):
        """With every fsync slowed, appends stop outrunning the sealer:
        once it is PENDING_SEGMENTS buffers behind, an append waits."""
        real_fsync = os.fsync

        def slow_fsync(fd):
            time.sleep(0.01)
            real_fsync(fd)

        monkeypatch.setattr(durable.os, "fsync", slow_fsync)
        log = open_log(tmp_path, segment_rows=2, window_seconds=1e12)
        most = 0
        for batch in range(60):
            log.append_many(collect_row(f"b{batch}", time.time(), seq=i) for i in range(3))
            most = max(most, collected(log)["polygraph_log_rows_buffered"])
        # the full buffers waiting, the batch that overfilled them, one partial
        assert most <= (PENDING_SEGMENTS + 2) * 2 + 3, most
        log.seal()
        monkeypatch.undo()
        assert len(log_rows(log)) == 180

    def test_an_export_of_many_segments_holds_few_descriptors(self, tmp_path, monkeypatch):
        """Each mapped column holds a file descriptor: a 240-segment
        window, ten columns each, exports under a limit of 100 more
        descriptors than are open now."""
        monkeypatch.setattr(durable.os, "fsync", lambda fd: None)
        log = open_log(tmp_path, segment_rows=1, window_seconds=1e12)
        for i in range(240):
            log.append_many([collect_row(f"s{i}", 1000.0 + i)], date(2023, 5, 1 + i % 30))
        log.seal()
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        resource.setrlimit(resource.RLIMIT_NOFILE, (len(os.listdir("/dev/fd")) + 100, hard))
        try:
            dataset = open_log(tmp_path).export_dataset()
        finally:
            resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
        assert [str(s) for s in dataset.session_ids] == [f"s{i}" for i in range(240)]
        assert dataset.days.astype(object).tolist() == [
            date(2023, 5, 1 + i % 30) for i in range(240)
        ]
