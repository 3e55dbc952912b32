"""The serve log's columnar segments and its manifest."""

import json

import numpy as np
import pytest

import repro.service.log as log_module
from repro.durable import UnreadableFileError
from repro.browsers.useragent import parse_user_agent
from repro.runtime.service import RuntimeScoringService
from repro.service.log import COLUMNS, read_segment
from tests.exposition_check import collected
from tests.log_rows import collect_row, collect_wire, fill, log_rows, open_log, seal_clock



class TestManifest:
    def test_reopen_uses_manifest_not_rescan(self, tmp_path, monkeypatch):
        fill(open_log(tmp_path, segment_rows=2), 6)
        monkeypatch.setattr(
            log_module, "read_segment",
            lambda *a: pytest.fail("reopen read a segment"),
        )
        assert collected(open_log(tmp_path))["polygraph_log_segments"] == 3

    def test_lost_manifest_rebuilt_from_disk(self, tmp_path):
        fill(open_log(tmp_path, segment_rows=3), 7)
        (tmp_path / "manifest.json").unlink()
        reopened = open_log(tmp_path, segment_rows=3)
        assert len(reopened.export_dataset()) == 7
        reopened.append_many([collect_row("after", 2000.0)])
        reopened.seal()  # numbered after the segments it found
        assert len(open_log(tmp_path).export_dataset()) == 8
        assert len(list(tmp_path.glob("segment-*.npz"))) == 4

    def test_segment_names_carry_their_seal_time(self, tmp_path, monkeypatch):
        """A seal writes a constant-size manifest: the range of numbers
        the log holds.  Retention reads each segment's seal time, the
        log's clock when it was written, from its name; no row's ``ts``
        moves it."""
        clock = seal_clock(monkeypatch, 5_000.2)
        log = open_log(tmp_path, window_seconds=1e12)
        log.append_many([collect_row("a", 300.0), collect_row("b", 100.0), collect_row("c", 900.0)])
        log.seal()
        clock[0] = 7_000.0
        log.append_many([collect_row("far", 1e12)])
        log.seal()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest == {"format_version": 1, "first": 0, "next": 2}
        assert sorted(p.name for p in tmp_path.glob("segment-*.npz")) == [
            "segment-000000-5001.npz", "segment-000001-7000.npz",
        ]
        assert [r["ts"] for r in log_rows(log)] == [300.0, 100.0, 900.0, 1e12]

    def test_a_segment_the_manifest_does_not_name_is_not_read(self, tmp_path, monkeypatch):
        """A seal killed between its segment and its manifest leaves a
        segment outside the manifest's range: it is not read, and the
        next seal removes it before writing that number."""
        clock = seal_clock(monkeypatch, 1001.0)
        fill(open_log(tmp_path, segment_rows=2), 2)
        (sealed,) = tmp_path.glob("segment-*.npz")
        orphan = tmp_path / "segment-000001-5000.npz"
        orphan.write_bytes(sealed.read_bytes())
        (tmp_path / "segment-000001-7.npz.tmp").write_bytes(b"torn")
        reopened = open_log(tmp_path)
        assert len(reopened.export_dataset()) == 2
        clock[0] = 2000.0
        reopened.append_many([collect_row("next", 2000.0)])
        reopened.seal()
        assert [r["sid"] for r in log_rows(open_log(tmp_path))] == ["s-0", "s-1", "next"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "manifest.json", "segment-000000-1001.npz", "segment-000001-2000.npz",
        ]


    def test_a_file_that_is_no_segment_name_is_refused_by_name(self, tmp_path):
        (tmp_path / "segment-junk.npz").write_bytes(b"")
        with pytest.raises(UnreadableFileError, match="segment-junk.npz: not a segment name"):
            open_log(tmp_path)


class TestColumnarSegments:
    def test_mmap_and_load_agree(self, tmp_path):
        log = open_log(tmp_path)
        fill(log, 9)
        (path,) = tmp_path.glob("segment-*.npz")
        mapped = read_segment(path)
        with np.load(path, allow_pickle=False) as loaded:
            for name in COLUMNS:
                assert np.array_equal(mapped[name], loaded[name]), name
        assert isinstance(mapped["f"], np.memmap)

    def test_export_is_zero_copy_for_single_segment(self, tmp_path):
        fill(open_log(tmp_path), 6)
        dataset = open_log(tmp_path).export_dataset()
        assert isinstance(dataset.features, np.memmap)

    def test_precomputed_ua_keys_match_parser(self, trained, tmp_path):
        log = open_log(tmp_path)
        service = RuntimeScoringService(trained, log=log)
        service.score_many([collect_wire(f"k-{i}", 108 + i % 6) for i in range(12)])
        service.shutdown()
        log.seal()
        dataset = log.export_dataset()
        assert [str(k) for k in dataset.ua_keys] == [
            parse_user_agent(str(ua)).key() for ua in dataset.user_agents
        ]
