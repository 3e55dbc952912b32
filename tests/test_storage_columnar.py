"""Columnar session-store format: migration, manifest, mixed reads."""

import json
from datetime import date

import numpy as np
import pytest

from repro.browsers.profiles import BrowserProfile
from repro.browsers.useragent import Vendor
from repro.fingerprint.script import CollectionScript, FingerprintPayload
from repro.service import columnar
from repro.service.storage import SessionStore


def _payload(session_id, vendor=Vendor.CHROME, version=112, globs=()):
    profile = BrowserProfile(vendor, version)
    payload = CollectionScript().run(
        profile.environment(), profile.user_agent(), session_id
    )
    if globs:
        payload = FingerprintPayload(
            session_id=payload.session_id,
            user_agent=payload.user_agent,
            values=payload.values,
            service_time_ms=payload.service_time_ms,
            suspicious_globals=tuple(globs),
        )
    return payload


def _fill(store, n, prefix="s", start_day=date(2023, 5, 1)):
    store.append_many(
        (
            _payload(f"{prefix}-{i}", version=110 + (i % 3)),
            date(start_day.year, start_day.month, 1 + (i % 7)),
        )
        for i in range(n)
    )
    store.flush()


def _dataset_columns(dataset):
    return {
        "features": dataset.features,
        "ua_keys": np.asarray(dataset.ua_keys, dtype=object),
        "user_agents": np.asarray(dataset.user_agents, dtype=object),
        "session_ids": np.asarray(dataset.session_ids, dtype=object),
        "days": dataset.days.astype("datetime64[D]"),
    }


class TestMigration:
    def test_round_trip_equals_jsonl_export(self, tmp_path):
        store = SessionStore(tmp_path, max_records_per_segment=4)
        _fill(store, 11)
        before = _dataset_columns(store.export_dataset())

        converted = store.migrate()
        assert all(path.suffix == ".npz" for path in converted)
        assert not list(tmp_path.glob("*.jsonl"))

        after = _dataset_columns(store.export_dataset())
        for name in before:
            assert np.array_equal(before[name], after[name]), name

    def test_suspicious_globals_survive_migration(self, tmp_path):
        store = SessionStore(tmp_path)
        store.append(_payload("g-1", globs=("window.awb", "window.mimic")))
        store.append(_payload("g-2"))
        (segment,) = store.migrate()
        globs = columnar.read_segment(segment)["g"]
        assert json.loads(str(globs[0])) == ["window.awb", "window.mimic"]
        assert str(globs[1]) == ""

    def test_migrate_twice_is_noop(self, tmp_path):
        store = SessionStore(tmp_path)
        _fill(store, 3)
        assert len(store.migrate()) == 1
        assert store.migrate() == []
        assert len(store) == 3

    def test_mixed_store_exports_in_order(self, tmp_path):
        store = SessionStore(tmp_path, max_records_per_segment=5)
        _fill(store, 5, prefix="old")
        store.migrate()
        store.append_many(
            ((_payload(f"new-{i}"), date(2023, 6, 1)) for i in range(3))
        )
        dataset = store.export_dataset()
        assert len(dataset) == 8
        sids = [str(s) for s in dataset.session_ids]
        assert sids[:5] == [f"old-{i}" for i in range(5)]
        assert sids[5:] == [f"new-{i}" for i in range(3)]

    def test_appends_after_migrate_open_new_jsonl(self, tmp_path):
        store = SessionStore(tmp_path)
        _fill(store, 2)
        store.migrate()
        store.append(_payload("later"))
        suffixes = sorted(p.suffix for p in store.segments())
        assert suffixes == [".jsonl", ".npz"]


class TestManifest:
    def test_reopen_uses_manifest_not_rescan(self, tmp_path, monkeypatch):
        store = SessionStore(tmp_path, max_records_per_segment=10)
        _fill(store, 6)
        monkeypatch.setattr(
            SessionStore,
            "_scan_jsonl",
            staticmethod(lambda *a: pytest.fail("reopen rescanned a segment")),
        )
        reopened = SessionStore(tmp_path, max_records_per_segment=10)
        assert len(reopened) == 6

    def test_tail_scan_recovers_unflushed_appends(self, tmp_path):
        store = SessionStore(tmp_path, max_records_per_segment=100)
        _fill(store, 4)
        # Appends after the last flush are only in the file, not the
        # manifest — a crash, in effect.
        store.append(_payload("tail-1"), day=date(2023, 7, 9))
        store.append(_payload("tail-2"), day=date(2023, 7, 9))
        reopened = SessionStore(tmp_path, max_records_per_segment=100)
        assert len(reopened) == 6
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        (entry,) = manifest["segments"]
        assert entry["records"] == 6
        assert entry["max_day"] == "2023-07-09"

    def test_lost_manifest_rebuilt_from_disk(self, tmp_path):
        store = SessionStore(tmp_path, max_records_per_segment=3)
        _fill(store, 7)
        store.migrate()
        (tmp_path / "manifest.json").unlink()
        reopened = SessionStore(tmp_path)
        assert len(reopened) == 7
        assert len(reopened.export_dataset()) == 7

    def test_manifest_tracks_day_ranges(self, tmp_path):
        store = SessionStore(tmp_path)
        store.append(_payload("a"), day=date(2023, 5, 3))
        store.append(_payload("b"), day=date(2023, 5, 1))
        store.append(_payload("c"), day=date(2023, 5, 9))
        store.flush()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        (entry,) = manifest["segments"]
        assert entry["min_day"] == "2023-05-01"
        assert entry["max_day"] == "2023-05-09"
        assert entry["format"] == "jsonl"


class TestColumnarSegments:
    def test_mmap_and_load_agree(self, tmp_path):
        store = SessionStore(tmp_path)
        _fill(store, 9)
        (path,) = store.migrate()
        mapped = columnar.read_segment(path, mmap=True)
        loaded = columnar.read_segment(path, mmap=False)
        for name in columnar.COLUMNS:
            assert np.array_equal(mapped[name], loaded[name]), name
        assert isinstance(mapped["f"], np.memmap)

    def test_segment_records_reads_header_only(self, tmp_path):
        store = SessionStore(tmp_path)
        _fill(store, 5)
        (path,) = store.migrate()
        assert columnar.segment_records(path) == 5

    def test_export_is_zero_copy_for_single_segment(self, tmp_path):
        store = SessionStore(tmp_path)
        _fill(store, 6)
        store.migrate()
        dataset = SessionStore(tmp_path).export_dataset()
        assert isinstance(dataset.features, np.memmap)

    def test_precomputed_ua_keys_match_parser(self, tmp_path):
        store = SessionStore(tmp_path)
        _fill(store, 6)
        jsonl_keys = list(store.export_dataset().ua_keys)
        store.migrate()
        columnar_keys = [str(k) for k in store.export_dataset().ua_keys]
        assert columnar_keys == jsonl_keys
