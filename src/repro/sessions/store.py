"""Durable sliding-window log of scored session events.

Reuses the columnar segment mechanics from
:mod:`repro.service.columnar` — durable uncompressed ``.npz`` writes,
memory-mapped reads — with an event-shaped column set: one row per
*event*, not per session, carrying the interaction type, sequence
number, absolute timestamp and scoring outcome next to the fingerprint.

The log is a sliding window: an in-memory buffer absorbs appends, seals
into an immutable segment every ``segment_events`` rows, and
:meth:`prune` drops whole segments whose newest event has fallen out of
the retention window.  A tiny JSON manifest records per-segment time
bounds so window queries and pruning decide from metadata without
opening the archives.  Both go through :func:`repro.durable.write_atomic`,
segment first: a crash between the two leaves a segment no manifest
names, which the next seal of that number replaces.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.durable import read_json, write_atomic
from repro.service.columnar import read_segment, write_segment

__all__ = ["EVENT_COLUMNS", "SessionEventLog"]

EVENT_COLUMNS = ("sid", "ev", "seq", "ts", "ua_key", "f", "flagged", "risk")

_MANIFEST = "events_manifest.json"


def _records_to_columns(records: List[dict]) -> Dict[str, np.ndarray]:
    return {
        "sid": np.array([r["sid"] for r in records], dtype="U"),
        "ev": np.array([r["ev"] for r in records], dtype="U"),
        "seq": np.array([r["seq"] for r in records], dtype=np.int32),
        "ts": np.array([r["ts"] for r in records], dtype=np.float64),
        "ua_key": np.array([r["ua_key"] for r in records], dtype="U"),
        "f": np.array([r["f"] for r in records], dtype=np.int32),
        "flagged": np.array([r["flagged"] for r in records], dtype=bool),
        # -1 encodes "no risk factor" (unflagged / unknown UA).
        "risk": np.array(
            [-1 if r.get("risk") is None else r["risk"] for r in records],
            dtype=np.int16,
        ),
    }


def _columns_to_records(columns: Dict[str, np.ndarray]) -> List[dict]:
    records = []
    for idx in range(columns["sid"].shape[0]):
        risk = int(columns["risk"][idx])
        records.append(
            {
                "sid": str(columns["sid"][idx]),
                "ev": str(columns["ev"][idx]),
                "seq": int(columns["seq"][idx]),
                "ts": float(columns["ts"][idx]),
                "ua_key": str(columns["ua_key"][idx]),
                "f": [int(v) for v in columns["f"][idx]],
                "flagged": bool(columns["flagged"][idx]),
                "risk": None if risk < 0 else risk,
            }
        )
    return records


class SessionEventLog:
    """Append-only event log with segment-grained retention.

    Parameters
    ----------
    root:
        Directory for segments and the manifest (created if missing).
    segment_events:
        Buffered events per sealed segment.
    window_seconds:
        Retention horizon; :meth:`prune` drops segments entirely older
        than ``newest_seen - window_seconds``.
    """

    def __init__(
        self,
        root: Union[str, Path],
        segment_events: int = 4096,
        window_seconds: float = 86_400.0,
    ) -> None:
        if segment_events < 1:
            raise ValueError("segment_events must be >= 1")
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.segment_events = segment_events
        self.window_seconds = window_seconds
        self._lock = threading.Lock()
        self._buffer: List[dict] = []
        self._manifest: List[dict] = []
        self._next_segment = 0
        self._newest_ts = float("-inf")
        self.appended = 0
        self.pruned_segments = 0
        self._load_manifest()

    # ------------------------------------------------------------------
    # writes

    def append(
        self,
        session_id: str,
        event_type: str,
        seq: int,
        timestamp: float,
        ua_key: str,
        values,
        flagged: bool,
        risk: Optional[int],
    ) -> None:
        """Record one scored event; seals a segment at the buffer cap."""
        record = {
            "sid": session_id,
            "ev": event_type,
            "seq": int(seq),
            "ts": float(timestamp),
            "ua_key": ua_key,
            "f": [int(v) for v in values],
            "flagged": bool(flagged),
            "risk": risk,
        }
        with self._lock:
            self._buffer.append(record)
            self.appended += 1
            if record["ts"] > self._newest_ts:
                self._newest_ts = record["ts"]
            if len(self._buffer) >= self.segment_events:
                self._seal_locked()

    def seal(self) -> Optional[Path]:
        """Flush the buffer into a segment now (``None`` if empty)."""
        with self._lock:
            return self._seal_locked()

    def _seal_locked(self) -> Optional[Path]:
        if not self._buffer:
            return None
        name = f"events-{self._next_segment:06d}.npz"
        path = self.root / name
        columns = _records_to_columns(self._buffer)
        size = write_segment(path, columns, column_set=EVENT_COLUMNS)
        ts = columns["ts"]
        self._manifest.append(
            {
                "name": name,
                "rows": len(self._buffer),
                "bytes": size,
                "min_ts": float(ts.min()),
                "max_ts": float(ts.max()),
            }
        )
        self._next_segment += 1
        self._buffer = []
        self._write_manifest_locked()
        return path

    def prune(self, now: Optional[float] = None) -> int:
        """Drop segments wholly outside the window; returns the count.

        ``now`` defaults to the newest event timestamp ever appended,
        so replay-driven logs (benchmarks, tests) prune against their
        own virtual clock instead of wall time.
        """
        with self._lock:
            if now is None:
                now = self._newest_ts
            if now == float("-inf"):
                return 0
            cutoff = now - self.window_seconds
            keep, drop = [], []
            for entry in self._manifest:
                (drop if entry["max_ts"] < cutoff else keep).append(entry)
            for entry in drop:
                try:
                    (self.root / entry["name"]).unlink()
                except FileNotFoundError:
                    pass
            if drop:
                self._manifest = keep
                self.pruned_segments += len(drop)
                self._write_manifest_locked()
            return len(drop)

    # ------------------------------------------------------------------
    # reads

    def window(
        self, seconds: Optional[float] = None, now: Optional[float] = None
    ) -> List[dict]:
        """Events within the trailing window, oldest first.

        Only segments whose manifest bounds overlap the window are
        opened (memory-mapped); the in-memory buffer is included.
        """
        with self._lock:
            if now is None:
                now = self._newest_ts
            horizon = self.window_seconds if seconds is None else seconds
            cutoff = now - horizon
            manifest = list(self._manifest)
            buffered = [r for r in self._buffer if r["ts"] >= cutoff]
        records: List[dict] = []
        for entry in manifest:
            if entry["max_ts"] < cutoff:
                continue
            columns = read_segment(
                self.root / entry["name"], column_set=EVENT_COLUMNS
            )
            for record in _columns_to_records(columns):
                if record["ts"] >= cutoff:
                    records.append(record)
        records.extend(buffered)
        records.sort(key=lambda r: (r["ts"], r["sid"], r["seq"]))
        return records

    def stats(self) -> Dict[str, float]:
        with self._lock:
            return {
                "segments": len(self._manifest),
                "sealed_events": sum(e["rows"] for e in self._manifest),
                "buffered_events": len(self._buffer),
                "appended": self.appended,
                "pruned_segments": self.pruned_segments,
            }

    # ------------------------------------------------------------------
    # manifest

    def _load_manifest(self) -> None:
        path = self.root / _MANIFEST
        if not path.exists():
            return
        document = read_json(path)
        self._manifest = [
            e for e in document.get("segments", [])
            if (self.root / e["name"]).exists()
        ]
        if self._manifest:
            self._next_segment = (
                max(int(e["name"].split("-")[1].split(".")[0])
                    for e in self._manifest) + 1
            )
            self._newest_ts = max(e["max_ts"] for e in self._manifest)

    def _write_manifest_locked(self) -> None:
        write_atomic(
            self.root / _MANIFEST, json.dumps({"segments": self._manifest}, indent=1)
        )
