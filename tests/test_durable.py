"""The durable write and read helpers, and a crash-point harness over them.

Every durable file goes through ``repro.durable.write_atomic``, whose
rename is its commit point.  The harness records the renames of one
scripted control-plane day, then replays the day once per rename and
per crash mode — killed just before the rename (its temp file is left
behind) or just after it — and restarts from the files on disk the way
a fresh process does.  Each restart must land in a defined state: the
one before the interrupted step or the one after it, never an
exception; and the day must then finish from there.  Write boundaries
are enumerated, not sampled (the approach of Pillai et al., "All File
Systems Are Not Created Equal", OSDI 2014).
"""

import os
import shutil
import stat
from datetime import date

import pytest

import repro.durable as durable
from repro.browsers.profiles import BrowserProfile
from repro.browsers.useragent import Vendor
from repro.core.retraining import ModelRegistry
from repro.durable import UnreadableFileError, read_json, write_atomic
from repro.fingerprint.script import CollectionScript
from repro.rollout import RolloutConfig, RolloutManager
from repro.service.log import COLLECT, SegmentLog
from tests.log_rows import seal_clock

SALT = "00c0ffee00c0ffee"
SEALED_AT = 104.0  # the serve log's clock at every seal of the day
STEPS = ("stage", "start", "advance", "advance", "promote", "rollback", "seal", "seal")


class _Crash(BaseException):
    """A kill at a write boundary: not an ``Exception``, so no handler
    in the code under test can absorb it."""


def _rows(prefix):
    """Three /collect rows and two event rows, as the services log them."""
    profile = BrowserProfile(Vendor.CHROME, 112)
    payload = CollectionScript().run(profile.environment(), profile.user_agent(), prefix)
    return [
        (f"{prefix}-{i}", COLLECT if i < 3 else "focus", i - 3, 100.0 + i,
         payload.user_agent, "chrome-112", payload.values, False, None)
        for i in range(5)
    ]


class TestHelpers:
    def test_write_fsyncs_the_file_and_its_directory(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync

        def fsync(fd):
            synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            real_fsync(fd)

        monkeypatch.setattr(durable.os, "fsync", fsync)
        assert write_atomic(tmp_path / "state.json", '{"a": 1}') == 8
        assert synced == [False, True]  # the temp file, then the directory
        assert read_json(tmp_path / "state.json") == {"a": 1}
        assert os.listdir(tmp_path) == ["state.json"]

    @pytest.mark.parametrize(
        "content, kwargs, reason",
        [
            (b'{"a": ', {}, "not a JSON document"),
            (b"\xff\xfe\x00garbage", {}, "not a JSON document"),
            (b'{"format_version": 2}', {"format_version": 1}, "unsupported format 2"),
            (b"[1, 2]", {"format_version": 1}, "unsupported format None"),
            (
                b'{"format_version": 1, "sha256": "abc"}',
                {"format_version": 1, "digest": lambda body: "def"},
                "digest mismatch",
            ),
        ],
    )
    def test_unreadable_files_raise_one_type_naming_the_file(
        self, tmp_path, content, kwargs, reason
    ):
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        with pytest.raises(UnreadableFileError) as raised:
            read_json(path, **kwargs)
        assert isinstance(raised.value, ValueError)
        assert str(raised.value).startswith(f"{path}: ")
        assert reason in str(raised.value)


class _Process:
    """The control-plane files under ``root``, opened as a restarted
    process opens them."""

    def __init__(self, root):
        self.registry = ModelRegistry(root / "registry")
        for entry in self.registry.versions():
            self.registry.load(entry["version"])  # every model file loads
        self.manager = RolloutManager(
            self.registry, config=RolloutConfig(stages=(0.1, 1.0)), clock=lambda: 0.0
        )
        self.manager.resume()
        self.log = SegmentLog(root / "log")

    def snapshot(self):
        state = self.manager.state
        return (
            tuple((e["version"], e["status"]) for e in self.registry.versions()),
            self.registry.live_version,
            None if state is None else (state.status, state.stage_index),
            tuple(tuple(columns["sid"].tolist()) for columns in self.log.segments()),
            len(self.log.export_dataset()),
        )

    def run(self, step, candidate):
        if step == "stage":
            self.registry.stage_candidate(candidate, date(2023, 8, 1), "retrain")
        elif step == "start":
            self.manager.start(2, salt=SALT)
        elif step in ("advance", "promote"):
            self.manager.advance(force=True)
        elif step == "rollback":
            self.manager.rollback()
        else:
            self.log.append_many(
                _rows(f"seal{len(self.log.segments())}"), date(2023, 8, 2)
            )
            self.log.seal()


@pytest.fixture(scope="module")
def day(tmp_path_factory, trained, relabelled_model):
    """A control-plane root before the day, the candidate the day
    stages, and the restart snapshot after each clean prefix of it."""
    with pytest.MonkeyPatch.context() as patch:
        seal_clock(patch, SEALED_AT)
        base = tmp_path_factory.mktemp("crash-day")
        template = base / "template"
        ModelRegistry(template / "registry").promote(trained, date(2023, 7, 1), "bootstrap")
        log = SegmentLog(template / "log")
        log.append_many(_rows("bootstrap"), date(2023, 7, 1))
        log.seal()
        candidate = ModelRegistry(template / "registry").load(1).install(relabelled_model)
        clean = base / "clean"
        shutil.copytree(template, clean)
        process = _Process(clean)
        snapshots = [_Process(template).snapshot()]
        for i, step in enumerate(STEPS):
            process.run(step, candidate)
            shutil.copytree(clean, base / f"after-{i}")
            snapshots.append(_Process(base / f"after-{i}").snapshot())
        return template, candidate, snapshots


def _run_day(root, candidate, monkeypatch, crash_at=None, after=False):
    """Run the day on ``root``; returns the (step, file) of every rename.

    With ``crash_at``, the day dies at that rename (1-based): before it,
    or just after it with ``after``.
    """
    renames = []
    real_replace = os.replace

    def replace(src, dst):
        renames.append((step, os.path.basename(dst)))
        if len(renames) == crash_at and not after:
            raise _Crash
        real_replace(src, dst)
        if len(renames) == crash_at:
            raise _Crash

    process = _Process(root)
    with monkeypatch.context() as patch:
        patch.setattr(durable.os, "replace", replace)
        for step, name in enumerate(STEPS):
            process.run(name, candidate)
    return renames


def test_the_day_writes_every_control_plane_file(day, tmp_path, monkeypatch):
    seal_clock(monkeypatch, SEALED_AT)
    template, candidate, snapshots = day
    shutil.copytree(template, tmp_path / "root")
    renames = _run_day(tmp_path / "root", candidate, monkeypatch)
    assert [name for _, name in renames] == [
        "model-v002.json", "registry.json",               # stage
        "rollout.json", "rollout.json", "rollout.json",  # start, advance x2
        "registry.json", "rollout.json",                 # promote
        "registry.json", "rollout.json",                 # rollback
        "segment-000001-104.npz", "manifest.json",       # seal
        "segment-000002-104.npz", "manifest.json",       # seal
    ]
    assert _Process(tmp_path / "root").snapshot() == snapshots[-1]
    # Every step moved the state, so "before" and "after" are told apart.
    assert len(set(snapshots)) == len(snapshots)


@pytest.mark.parametrize("after", [False, True], ids=["before-rename", "after-rename"])
def test_every_write_boundary_restarts_into_a_defined_state(
    day, tmp_path, monkeypatch, after
):
    seal_clock(monkeypatch, SEALED_AT)
    template, candidate, snapshots = day
    shutil.copytree(template, tmp_path / "probe")
    renames = _run_day(tmp_path / "probe", candidate, monkeypatch)
    for crash_at, (step, name) in enumerate(renames, start=1):
        root = tmp_path / f"crash-{crash_at}"
        shutil.copytree(template, root)
        with pytest.raises(_Crash):
            _run_day(root, candidate, monkeypatch, crash_at, after)
        leftovers = {p.name for p in root.rglob("*.tmp")}
        assert leftovers == (set() if after else {f"{name}.tmp"}), crash_at
        process = _Process(root)  # the restart: must not raise
        observed = process.snapshot()
        assert observed in snapshots[step:step + 2], (crash_at, name, observed)
        # ... and the day finishes from whichever side it landed on.
        for rest in STEPS[snapshots.index(observed, step):]:
            process.run(rest, candidate)
        assert _Process(root).snapshot() == snapshots[-1], (crash_at, name)
        # A segment a crash left unnamed is gone once the day is done.
        assert sorted(os.listdir(root / "log")) == [
            "manifest.json", "segment-000000-104.npz", "segment-000001-104.npz",
            "segment-000002-104.npz",
        ], crash_at
