"""Rows for the serve-log suites, as the scoring services log them."""

import types
from datetime import date

import repro.service.log as log_module

from repro.browsers.profiles import BrowserProfile
from repro.browsers.useragent import Vendor
from repro.fingerprint.script import CollectionScript
from repro.service.log import COLLECT, COLUMNS, SegmentLog

#: The day of a batch appended without one, in these suites.
DAY = date(2023, 5, 1)


def open_log(root, **kwargs) -> SegmentLog:
    """A log whose undated batches fall on :data:`DAY`."""
    return SegmentLog(root, clock=lambda: DAY, **kwargs)


def seal_clock(monkeypatch, now: float) -> list:
    """Set the serve log's wall clock (what dates a seal) to ``now``;
    assign ``clock[0]`` to move it."""
    clock = [now]
    monkeypatch.setattr(log_module, "time", types.SimpleNamespace(time=lambda: clock[0]))
    return clock


def collect_row(sid, ts, kind=COLLECT, seq=-1, version=112, flagged=False):
    profile = BrowserProfile(Vendor.CHROME, version)
    return (sid, kind, seq, ts, profile.user_agent(), f"chrome-{version}",
            tuple(range(28)), flagged, 4 if flagged else None)


def event_row(sid, seq, ts, flagged=False):
    return collect_row(sid, ts, kind="page_load", seq=seq, flagged=flagged)


def fill(log, n, prefix="s", day=DAY):
    """Log ``n`` /collect rows of three releases, then seal."""
    log.append_many(
        (collect_row(f"{prefix}-{i}", 1000.0 + i, version=110 + i % 3) for i in range(n)),
        day,
    )
    log.seal()


def log_rows(log) -> list:
    """Every sealed row of ``log``, as a dict of plain values."""
    return [
        {name: columns[name][i].tolist() for name in COLUMNS}
        for columns in log.segments()
        for i in range(len(columns["sid"]))
    ]


def collect_wire(session_id, version=112) -> bytes:
    """A /collect body from a real Chrome ``version``."""
    profile = BrowserProfile(Vendor.CHROME, version)
    return CollectionScript().run(
        profile.environment(), profile.user_agent(), session_id
    ).to_wire()
