"""Append-only session store with rotation and columnar sealing.

FinOrg handed the authors "periodic datasets" collected over eight
months.  :class:`SessionStore` is that mechanism: accepted payloads are
appended to a JSONL segment; when a segment reaches its size cap it is
rotated, and the whole store can be exported as a
:class:`~repro.traffic.dataset.Dataset` for (re)training.

Two formats coexist per segment, tracked by a ``manifest.json``:

* ``jsonl`` — the append format.  One JSON object per line; always the
  active segment, and the only format ever written by :meth:`append`.
* ``columnar`` — the training format (see
  :mod:`repro.service.columnar`).  :meth:`migrate` seals JSONL segments
  into uncompressed ``.npz`` archives whose columns — including the
  precomputed ``vendor-version`` key — are **memory-mapped** straight
  into the exported dataset, so a retrain's export step parses no JSON
  and copies no rows.

The manifest persists per-segment record counts, byte sizes, and day
ranges, so reopening a store costs one small JSON read instead of a
line-by-line rescan; if the process died after appends but before a
manifest flush, only the unaccounted *tail* of the active segment is
scanned to reconcile.
"""

from __future__ import annotations

import json
from datetime import date
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.browsers.useragent import parse_user_agent
from repro.durable import read_json, write_atomic
from repro.fingerprint.features import FEATURE_NAMES
from repro.fingerprint.script import FingerprintPayload
from repro.service import columnar
from repro.traffic.dataset import Dataset

__all__ = ["SessionStore"]

_SEGMENT_PREFIX = "sessions"
_MANIFEST_NAME = "manifest.json"
# The manifest is also flushed every N appends so a crash rescans at
# most N records' worth of tail bytes.
_MANIFEST_FLUSH_INTERVAL = 256

FORMAT_JSONL = "jsonl"
FORMAT_COLUMNAR = "columnar"


class _Segment:
    """Manifest row for one segment file."""

    __slots__ = ("index", "format", "records", "bytes", "min_day", "max_day")

    def __init__(
        self,
        index: int,
        format: str,
        records: int,
        bytes: int,
        min_day: Optional[str] = None,
        max_day: Optional[str] = None,
    ) -> None:
        self.index = index
        self.format = format
        self.records = records
        self.bytes = bytes
        self.min_day = min_day
        self.max_day = max_day

    @property
    def name(self) -> str:
        suffix = "npz" if self.format == FORMAT_COLUMNAR else "jsonl"
        return f"{_SEGMENT_PREFIX}-{self.index:05d}.{suffix}"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "format": self.format,
            "records": self.records,
            "bytes": self.bytes,
            "min_day": self.min_day,
            "max_day": self.max_day,
        }

    def observe_day(self, day: str) -> None:
        if self.min_day is None or day < self.min_day:
            self.min_day = day
        if self.max_day is None or day > self.max_day:
            self.max_day = day


class SessionStore:
    """Durable segment storage for accepted payloads.

    Parameters
    ----------
    root:
        Directory holding the segments (created if missing).
    max_records_per_segment:
        Rotation threshold.
    """

    def __init__(
        self, root: Union[str, Path], max_records_per_segment: int = 50_000
    ) -> None:
        if max_records_per_segment < 1:
            raise ValueError("max_records_per_segment must be >= 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_records_per_segment = max_records_per_segment
        self._segments: Dict[int, _Segment] = {}
        self._appends_since_flush = 0
        self._load_manifest()
        self._reconcile_with_disk()
        self._active_index = (
            max(self._segments) if self._segments else 0
        )
        active = self._segments.get(self._active_index)
        if active is not None and active.format == FORMAT_COLUMNAR:
            # Columnar segments are sealed; appends start a fresh one.
            self._active_index += 1

    # ------------------------------------------------------------------
    # writes

    def append(self, payload: FingerprintPayload, day: Optional[date] = None) -> None:
        """Append one accepted payload (rotating when the segment fills)."""
        self.append_many([(payload, day)])

    def append_many(
        self,
        payloads: Iterable[Tuple[FingerprintPayload, Optional[date]]],
    ) -> int:
        """Append a batch of ``(payload, day)`` pairs; returns the count.

        The batch shares one file handle per touched segment, which is
        what makes bulk ingestion (simulators, backfills, benchmarks)
        fast; durability semantics are identical to repeated
        :meth:`append` calls.
        """
        appended = 0
        handle = None
        try:
            for payload, day in payloads:
                segment = self._active_segment()
                if segment.records >= self.max_records_per_segment:
                    if handle is not None:
                        handle.close()
                        handle = None
                    self._rotate()
                    segment = self._active_segment()
                if handle is None:
                    handle = (self.root / segment.name).open(
                        "a", encoding="utf-8"
                    )
                record = {
                    "sid": payload.session_id,
                    "ua": payload.user_agent,
                    "f": list(payload.values),
                    "day": (day or date(1970, 1, 1)).isoformat(),
                }
                if payload.suspicious_globals:
                    record["g"] = list(payload.suspicious_globals)
                line = json.dumps(record, separators=(",", ":")) + "\n"
                handle.write(line)
                segment.records += 1
                segment.bytes += len(line.encode("utf-8"))
                segment.observe_day(record["day"])
                appended += 1
                self._appends_since_flush += 1
        finally:
            if handle is not None:
                handle.close()
        if self._appends_since_flush >= _MANIFEST_FLUSH_INTERVAL:
            self.flush()
        return appended

    def flush(self) -> None:
        """Persist the manifest (record counts, day ranges) to disk."""
        entries = [
            self._segments[index].to_json()
            for index in sorted(self._segments)
        ]
        write_atomic(
            self.root / _MANIFEST_NAME,
            json.dumps({"version": 1, "segments": entries}, indent=2),
        )
        self._appends_since_flush = 0

    def migrate(self) -> List[Path]:
        """Seal every JSONL segment into the columnar format, in place.

        Each segment's records are rewritten as an uncompressed ``.npz``
        (with the ``vendor-version`` key precomputed per row) and the
        JSONL file is removed only after the replacement is fully on
        disk.  Returns the paths of the newly columnar segments.
        Subsequent appends open a fresh JSONL segment.
        """
        converted: List[Path] = []
        for index in sorted(self._segments):
            segment = self._segments[index]
            if segment.format != FORMAT_JSONL or segment.records == 0:
                continue
            jsonl_path = self.root / segment.name
            records = list(self._iter_jsonl(jsonl_path))
            columns = columnar.records_to_columns(records)
            segment.format = FORMAT_COLUMNAR
            target = self.root / segment.name
            segment.bytes = columnar.write_segment(target, columns)
            days = columns["day"].astype("datetime64[D]")
            segment.min_day = str(days.min())
            segment.max_day = str(days.max())
            jsonl_path.unlink()
            converted.append(target)
        if converted:
            active = self._segments.get(self._active_index)
            if active is not None and active.format == FORMAT_COLUMNAR:
                self._active_index += 1
            self.flush()
        return converted

    # ------------------------------------------------------------------
    # reads

    def segments(self) -> List[Path]:
        """Existing segment files, oldest first."""
        return [
            self.root / self._segments[index].name
            for index in sorted(self._segments)
            if self._segments[index].records > 0
            or (self.root / self._segments[index].name).exists()
        ]

    def __len__(self) -> int:
        return sum(s.records for s in self._segments.values())

    def export_dataset(self) -> Dataset:
        """Materialize the whole store as a training dataset.

        Columnar segments are memory-mapped straight into the dataset's
        columns (zero parse, zero copy until training touches the
        rows); JSONL segments fall back to line-by-line parsing.
        Ground-truth columns are filled with the placeholders a real
        deployment has ("live" traffic carries no labels); tags default
        to false because FinOrg joins them in from separate systems.

        A store whose sealed history is columnar therefore pays only
        for its (small) JSONL active segment at export time.
        """
        parts: List[Dataset] = []
        for index in sorted(self._segments):
            segment = self._segments[index]
            path = self.root / segment.name
            if segment.records == 0 and not path.exists():
                continue
            if segment.format == FORMAT_COLUMNAR:
                parts.append(self._columnar_part(path))
            else:
                records = list(self._iter_jsonl(path))
                if records:
                    parts.append(self._jsonl_part(records))
        if not parts:
            raise ValueError("the session store is empty")
        return Dataset.concatenate(parts)

    # ------------------------------------------------------------------
    # internals

    def _active_segment(self) -> _Segment:
        segment = self._segments.get(self._active_index)
        if segment is None:
            segment = _Segment(
                index=self._active_index,
                format=FORMAT_JSONL,
                records=0,
                bytes=0,
            )
            self._segments[self._active_index] = segment
        return segment

    def _rotate(self) -> None:
        self._active_index += 1
        self.flush()

    def _load_manifest(self) -> None:
        path = self.root / _MANIFEST_NAME
        if not path.exists():
            return
        data = read_json(path)
        for entry in data.get("segments", []):
            stem, suffix = entry["name"].rsplit(".", 1)
            index = int(stem.rsplit("-", 1)[1])
            self._segments[index] = _Segment(
                index=index,
                format=(
                    FORMAT_COLUMNAR if suffix == "npz" else FORMAT_JSONL
                ),
                records=int(entry["records"]),
                bytes=int(entry["bytes"]),
                min_day=entry.get("min_day"),
                max_day=entry.get("max_day"),
            )

    def _reconcile_with_disk(self) -> None:
        """Sync the manifest with segment files actually present.

        Three cases per file: unknown to the manifest (legacy store or
        lost manifest — full scan once), known but grown (crash between
        append and flush — scan only the tail bytes), or known and
        matching (trust the manifest; no I/O beyond ``stat``).  A JSONL
        segment beside its own columnar seal is the original a migrate
        died before deleting: the delete is finished here.
        """
        on_disk: Dict[int, Path] = {}
        for path in sorted(self.root.glob(f"{_SEGMENT_PREFIX}-*.jsonl")):
            on_disk[int(path.stem.rsplit("-", 1)[1])] = path
        for path in sorted(self.root.glob(f"{_SEGMENT_PREFIX}-*.npz")):
            index = int(path.stem.rsplit("-", 1)[1])
            if index in on_disk:
                on_disk[index].unlink()
            on_disk[index] = path

        dirty = False
        for index in list(self._segments):
            if index not in on_disk:
                del self._segments[index]
                dirty = True
        for index, path in on_disk.items():
            size = path.stat().st_size
            segment = self._segments.get(index)
            if path.suffix == ".npz":
                if segment is None or segment.format != FORMAT_COLUMNAR:
                    self._segments[index] = _Segment(
                        index=index,
                        format=FORMAT_COLUMNAR,
                        records=columnar.segment_records(path),
                        bytes=size,
                    )
                    dirty = True
                continue
            if segment is None or segment.format != FORMAT_JSONL or size < segment.bytes:
                # Unknown to the manifest, or truncated behind our back:
                # count it from the start.
                segment = self._segments[index] = _Segment(index, FORMAT_JSONL, 0, 0)
                dirty = True
            if size != segment.bytes:
                self._scan_jsonl(path, segment)
                dirty = True
        if dirty:
            self.flush()

    @staticmethod
    def _scan_jsonl(path: Path, segment: _Segment) -> None:
        """Count the records from ``segment.bytes`` to EOF into ``segment``.

        A last line with no newline is a record a crash cut short: it
        is dropped and the file truncated back to the last newline, so
        the next append starts a whole line.
        """
        with path.open("r+b") as handle:
            handle.seek(segment.bytes)
            for line in handle:
                if not line.endswith(b"\n"):
                    handle.truncate(segment.bytes)
                    break
                segment.bytes += len(line)
                if line.strip():
                    segment.records += 1
                    day = json.loads(line).get("day")
                    if day is not None:
                        segment.observe_day(day)

    @staticmethod
    def _iter_jsonl(path: Path) -> Iterator[dict]:
        if not path.exists():
            return
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    yield json.loads(line)

    @staticmethod
    def _jsonl_part(records: List[dict]) -> Dataset:
        n = len(records)
        features = np.array([r["f"] for r in records], dtype=np.int32)
        return _placeholder_dataset(
            features=features,
            ua_keys=np.array(
                [parse_user_agent(r["ua"]).key() for r in records],
                dtype=object,
            ),
            user_agents=np.array([r["ua"] for r in records], dtype=object),
            session_ids=np.array([r["sid"] for r in records], dtype=object),
            days=np.array([r["day"] for r in records], dtype="datetime64[D]"),
            n=n,
        )

    @staticmethod
    def _columnar_part(path: Path) -> Dataset:
        columns = columnar.read_segment(path)
        n = columns["sid"].shape[0]
        return _placeholder_dataset(
            features=columns["f"],
            ua_keys=columns["ua_key"],
            user_agents=columns["ua"],
            session_ids=columns["sid"],
            days=columns["day"].view("datetime64[D]"),
            n=n,
        )


def _placeholder_dataset(
    features: np.ndarray,
    ua_keys: np.ndarray,
    user_agents: np.ndarray,
    session_ids: np.ndarray,
    days: np.ndarray,
    n: int,
) -> Dataset:
    return Dataset(
        features=features,
        ua_keys=ua_keys,
        user_agents=user_agents,
        session_ids=session_ids,
        days=days,
        untrusted_ip=np.zeros(n, dtype=bool),
        untrusted_cookie=np.zeros(n, dtype=bool),
        ato=np.zeros(n, dtype=bool),
        truth_kind=np.full(n, "legit", dtype=object),
        truth_browser=np.full(n, "", dtype=object),
        truth_category=np.zeros(n, dtype=np.int8),
        truth_perturbation=np.full(n, "", dtype=object),
        feature_names=list(FEATURE_NAMES)[: features.shape[1]],
    )
