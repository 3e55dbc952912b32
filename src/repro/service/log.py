"""The serve log: every accepted ``/collect`` and ``/event`` row, on disk.

The paper's loop is collect, train, detect and retrain on the collected
window.  :class:`SegmentLog` is the "collect" half: ``serve --log DIR``
appends each accepted ``/collect`` row (through the scoring service)
and each accepted ``/event`` row (through the session layer), one
:meth:`SegmentLog.append_many` per batch, and ``retrain --log DIR``
exports its ``/collect`` rows as the next training window
(:meth:`SegmentLog.export_dataset`).  Only ``/collect`` rows train: the
paper fits one fingerprint per session, and an ``/event`` row is a
session's second, third, ... fingerprint.

One row, whatever the path (:data:`COLUMNS`)::

    sid      session id                       str
    kind     "collect" or the event type      str
    seq      event seq (-1 for a /collect)    int32
    ts       the event's ts, or the wall      float64, epoch seconds
             clock at a /collect's append
    day      the caller's day, else the       int64, epoch days
             log's clock's (serve: today)
    ua       claimed user-agent               str
    ua_key   its vendor-version key           str
    f        the feature row                  int32[n_features]
    flagged  the verdict's flag               bool
    risk     its risk factor (-1: none)       int16

Appends go to an in-memory buffer.  Every ``segment_rows`` rows the
full buffer is handed to a sealer thread the log owns, which writes it
as one uncompressed ``.npz`` segment (every column a plain ``.npy``
member at a known offset, so reads are memory-mapped) and then the
manifest; no append waits for a seal while the sealer keeps up.  When
it falls :data:`PENDING_SEGMENTS` full buffers behind, the next append
waits for it, so a slow disk bounds the rows held in memory instead of
letting them pile up.  :meth:`SegmentLog.seal` (what a drain calls)
writes what is buffered and joins the sealer.

A segment's name carries its number and the wall clock's second when it
was sealed (``segment-000042-1700000000.npz``), and the manifest holds
only the range of numbers the log holds, so a seal writes two small
files whatever the window's length.  Retention is one window over every
segment: each seal drops segments, oldest first, while the oldest one
was sealed before ``now - window_seconds``, where ``now`` is the latest
seal.  It reads no row's ``ts``: a client sets an event's ``ts``, and a
wrong client clock must neither drop the rows it sent nor move the
window past every honest segment.

Both files go through :func:`repro.durable.write_atomic`, segment
first.  A segment outside the manifest's range (a seal killed before
its manifest write, or a dropped segment killed before its delete) is
not read, and the reopened log's first seal removes it and any temp
file.  With no manifest at all, the segments on disk are read back as
the log.  Opening a log writes no file, so ``retrain`` may read a
directory that a ``serve`` is writing.
"""

from __future__ import annotations

import io
import json
import math
import threading
import time
import zipfile
from collections import deque
from datetime import date
from itertools import chain
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.durable import UnreadableFileError, read_json, write_atomic
from repro.fingerprint.features import FEATURE_NAMES
from repro.traffic.dataset import Dataset

__all__ = ["COLLECT", "COLUMNS", "DEFAULT_WINDOW_SECONDS", "SegmentLog"]

COLUMNS = ("sid", "kind", "seq", "ts", "day", "ua", "ua_key", "f", "flagged", "risk")

#: ``kind`` of a ``/collect`` row; an ``/event`` row's is its event type.
COLLECT = "collect"

#: 135 days: the 4.5-month window the paper's training set was
#: collected over, so a retrain can read the window it was fitted on.
DEFAULT_WINDOW_SECONDS = 135 * 86_400.0

#: Full buffers the sealer may fall behind by before appends wait.
PENDING_SEGMENTS = 4

_MANIFEST = "manifest.json"
_PREFIX = "segment-"
_FORMAT = 1
_TRAINED = ("sid", "day", "ua", "ua_key", "f")  # what an export reads
_MAPPED_SEGMENTS = 64  # an export's open maps, one file descriptor each


def _columns(rows: List[tuple], days: List[int]) -> Dict[str, np.ndarray]:
    """The one converter: rows of :data:`COLUMNS` but ``day``, and each
    row's epoch day, to columns."""
    sid, kind, seq, ts, ua, ua_key, f, flagged, risk = zip(*rows)
    return {
        "sid": np.array(sid, dtype="U"),
        "kind": np.array(kind, dtype="U"),
        "seq": np.array(seq, dtype=np.int32),
        "ts": np.array(ts, dtype=np.float64),
        "day": np.array(days, dtype=np.int64),
        "ua": np.array(ua, dtype="U"),
        "ua_key": np.array(ua_key, dtype="U"),
        "f": np.array(f, dtype=np.int32),
        "flagged": np.array(flagged, dtype=bool),
        "risk": np.array([-1 if r is None else r for r in risk], dtype=np.int16),
    }


def read_segment(
    path: Union[str, Path], names: Iterable[str] = COLUMNS
) -> Dict[str, np.ndarray]:
    """A segment's ``names`` columns: views of one copy-on-write map of
    the file, which holds one file descriptor until every column is
    dropped."""
    path = Path(path)
    whole = np.memmap(path, dtype=np.uint8, mode="c")
    with zipfile.ZipFile(path, "r") as archive:
        return {
            name: _member(path, whole, archive, archive.getinfo(f"{name}.npy"))
            for name in names
        }


def _member(path: Path, whole: np.memmap, archive: zipfile.ZipFile, info) -> np.ndarray:
    """One ``.npy`` member of an uncompressed zip, as a view of ``whole``."""
    if info.compress_type != zipfile.ZIP_STORED:
        raise ValueError(f"{path}: {info.filename} is compressed")
    with archive.open(info.filename) as member:
        version = np.lib.format.read_magic(member)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(member)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(member)
        else:
            raise ValueError(f"{path}: unsupported npy format version {version}")
        if fortran or dtype.hasobject:
            raise ValueError(f"{path}: {info.filename} cannot be mapped")
        data_offset = member.tell()
    # The zip local header precedes the member payload: fixed 30 bytes
    # plus the (local) name and extra fields, which can differ from the
    # central directory's, so they are read from the file itself.
    local = info.header_offset
    name_len, extra_len = whole[local + 26:local + 30].view("<u2").tolist()
    start = local + 30 + name_len + extra_len + data_offset
    size = math.prod(shape) * dtype.itemsize
    return whole[start:start + size].view(dtype).reshape(shape)


def _name(number: int, sealed_at: int) -> str:
    return f"{_PREFIX}{number:06d}-{sealed_at}.npz"


def _parse(path: Path) -> Tuple[int, int]:
    """``(number, sealed_at)`` of a segment's file name."""
    try:
        number, sealed_at = path.stem[len(_PREFIX):].split("-", 1)
        return int(number), int(sealed_at)
    except ValueError:
        raise UnreadableFileError(f"{path}: not a segment name") from None


class SegmentLog:
    """Buffered, columnar, segmented log of served rows.

    Parameters
    ----------
    root:
        Directory for the segments and the manifest (created if missing).
    segment_rows:
        Rows per sealed segment: the buffer's bound.
    window_seconds:
        Retention horizon (see the module docstring).
    clock:
        The day of a batch appended without one; ``serve`` passes the
        bound ``date.today``.  Without it, every batch needs a ``day``.
    """

    def __init__(
        self,
        root: Union[str, Path],
        segment_rows: int = 4096,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        clock: Optional[Callable[[], date]] = None,
    ) -> None:
        if segment_rows < 1:
            raise ValueError("segment_rows must be >= 1")
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.segment_rows = segment_rows
        self.window_seconds = window_seconds
        self._clock = clock
        # Appends take ``_lock`` only; a seal writes under ``_seal_lock``
        # and takes ``_lock`` for a moment before and after.
        self._lock = threading.Lock()
        self._seal_lock = threading.Lock()
        self._buffer: List[tuple] = []
        self._days: List[int] = []  # the buffer's rows' epoch days
        self._pending: deque = deque()  # (rows, days), oldest first
        self._sealer: Optional[threading.Thread] = None
        self._segments: deque = deque()  # (number, sealed_at), oldest first
        self._next_number = 0
        self._swept = False  # what a killed process left, removed at the first seal
        self._newest_seal = -math.inf
        self.appended = 0
        self.sealed = 0
        self.pruned_segments = 0
        self._open()

    # ------------------------------------------------------------------
    # writes

    def append_many(self, rows: Iterable[tuple], day: Optional[date] = None) -> None:
        """Buffer one batch of rows: :data:`COLUMNS` in order, without
        ``day``, which is the caller's ``day`` or else the clock's.  A
        full buffer goes to the sealer thread; with
        :data:`PENDING_SEGMENTS` already waiting, the batch first waits
        for them to be written."""
        if day is None:
            if self._clock is None:
                raise ValueError("an undated batch needs a log with a clock")
            day = self._clock()
        epoch_day = int(np.datetime64(day, "D").astype(np.int64))
        with self._lock:
            behind = len(self._pending) >= PENDING_SEGMENTS
        if behind:
            self._write_pending()  # waits for the sealer, or seals here
        with self._lock:
            for row in rows:
                self._buffer.append(row)
                self._days.append(epoch_day)
                self.appended += 1
                if len(self._buffer) >= self.segment_rows:
                    self._hand_over_locked()
            if self._pending and self._sealer is None:
                self._sealer = threading.Thread(
                    target=self._seal_pending, name="segment-log-sealer"
                )
                self._sealer.start()

    def seal(self) -> None:
        """Write every buffered row to disk now, and join the sealer."""
        with self._lock:
            if self._buffer:
                self._hand_over_locked()
            sealer = self._sealer
        self._write_pending()
        if sealer is not None:
            sealer.join()

    def _hand_over_locked(self) -> None:
        self._pending.append((self._buffer, self._days))
        self._buffer, self._days = [], []

    def _seal_pending(self) -> None:
        """The sealer thread: write segments until none is pending.  If
        a write raises, the rows stay pending for the next sealer."""
        while True:
            try:
                self._write_pending()
            except BaseException:
                with self._lock:
                    self._sealer = None
                raise
            with self._lock:
                if not self._pending:
                    self._sealer = None
                    return

    def _write_pending(self) -> None:
        """Seal the pending buffers, oldest first, one segment each."""
        with self._seal_lock:
            while True:
                with self._lock:
                    if not self._pending:
                        return
                    rows, days = self._pending[0]
                self._write_segment(_columns(rows, days))
                with self._lock:
                    self._pending.popleft()
                    self.sealed += len(rows)

    def _write_segment(self, columns: Dict[str, np.ndarray]) -> None:
        """One segment, then one manifest whose range adds it and drops
        the oldest segments out of the window; then the dropped
        segments' files go."""
        if not self._swept:
            self._sweep()
        number = self._next_number
        sealed_at = math.ceil(time.time())
        path = self.root / _name(number, sealed_at)
        buffer = io.BytesIO()
        np.savez(buffer, **columns)  # uncompressed: every member mappable
        write_atomic(path, buffer.getbuffer())
        newest = max(self._newest_seal, sealed_at)
        dropped, first = [], number + 1
        for entry in chain(self._segments, [(number, sealed_at)]):
            if entry[1] >= newest - self.window_seconds:
                first = entry[0]
                break
            dropped.append(entry)
        manifest = {"format_version": _FORMAT, "first": first, "next": number + 1}
        try:
            write_atomic(self.root / _MANIFEST, json.dumps(manifest))
        except Exception:
            path.unlink(missing_ok=True)  # the retry writes it again
            raise
        with self._lock:
            self._segments.append((number, sealed_at))
            for _ in dropped:
                self._segments.popleft()
            self.pruned_segments += len(dropped)
        self._next_number = number + 1
        self._newest_seal = newest
        for entry in dropped:
            (self.root / _name(*entry)).unlink(missing_ok=True)

    def _sweep(self) -> None:
        """Remove every segment and temp file the manifest does not name."""
        named = {_name(*entry) for entry in self._segments}
        for path in chain(self.root.glob(f"{_PREFIX}*.npz"), self.root.glob(f"{_PREFIX}*.tmp")):
            if path.name not in named:
                path.unlink(missing_ok=True)
        self._swept = True

    # ------------------------------------------------------------------
    # reads

    def _paths(self) -> List[Path]:
        with self._lock:
            return [self.root / _name(*entry) for entry in self._segments]

    def segments(self) -> List[Dict[str, np.ndarray]]:
        """Each sealed segment's columns, memory-mapped, oldest first.
        Rows still buffered are not read: :meth:`seal` first."""
        return [read_segment(path) for path in self._paths()]

    def export_dataset(self) -> Dataset:
        """The sealed ``/collect`` rows as a training dataset.

        A window of one segment of ``/collect`` rows only is
        memory-mapped into the dataset, not copied.  Otherwise the
        segments are mapped :data:`_MAPPED_SEGMENTS` at a time and each
        group is copied out before the next is mapped, so an export
        holds a bounded number of file descriptors whatever the
        window's length.  Live traffic carries no labels, so the
        ground-truth columns hold placeholders and the tags are false.
        """
        paths = self._paths()
        groups = []
        for start in range(0, len(paths), _MAPPED_SEGMENTS):
            group = []
            for path in paths[start:start + _MAPPED_SEGMENTS]:
                columns = read_segment(path, ("kind",) + _TRAINED)
                collect = columns["kind"] == COLLECT
                if not collect.all():
                    columns = {name: columns[name][collect] for name in _TRAINED}
                if len(columns["sid"]):
                    group.append(columns)
            if group:
                groups.append(_concatenate(group))  # copied, unless one part: maps close
        if not groups:
            raise ValueError(f"{self.root}: the log holds no /collect row")
        return _dataset(_concatenate(groups))

    def collect(self, out) -> None:
        """Report the log's counts into ``out`` (a ``/metrics`` scrape)."""
        with self._lock:
            buffered = len(self._buffer) + sum(len(rows) for rows, _ in self._pending)
            out.counter("polygraph_log_rows_appended_total", self.appended)
            out.counter("polygraph_log_rows_sealed_total", self.sealed)
            out.gauge("polygraph_log_rows_buffered", buffered)
            out.gauge("polygraph_log_segments", len(self._segments))
            out.counter("polygraph_log_segments_pruned_total", self.pruned_segments)

    # ------------------------------------------------------------------
    # opening

    def _open(self) -> None:
        """Read the manifest's range, or with none every segment on disk,
        from the file names alone."""
        on_disk = sorted(_parse(path) for path in self.root.glob(f"{_PREFIX}*.npz"))
        path = self.root / _MANIFEST
        if path.exists():
            manifest = read_json(path, format_version=_FORMAT)
            first, self._next_number = manifest["first"], manifest["next"]
        else:
            first, self._next_number = 0, 1 + max((n for n, _ in on_disk), default=-1)
        self._segments = deque(
            (n, sealed_at) for n, sealed_at in on_disk if first <= n < self._next_number
        )
        self._newest_seal = max((sealed for _, sealed in self._segments), default=-math.inf)


def _concatenate(parts: List[Dict[str, np.ndarray]]) -> Dict[str, np.ndarray]:
    """One part as it is (mapped, not copied), or the parts' trained
    columns copied end to end."""
    if len(parts) == 1:
        return parts[0]
    return {name: np.concatenate([part[name] for part in parts]) for name in _TRAINED}


def _dataset(columns: Dict[str, np.ndarray]) -> Dataset:
    n = len(columns["sid"])
    return Dataset(
        features=columns["f"],
        ua_keys=columns["ua_key"],
        user_agents=columns["ua"],
        session_ids=columns["sid"],
        days=columns["day"].view("datetime64[D]"),
        untrusted_ip=np.zeros(n, dtype=bool),
        untrusted_cookie=np.zeros(n, dtype=bool),
        ato=np.zeros(n, dtype=bool),
        truth_kind=np.full(n, "legit", dtype=object),
        truth_browser=np.full(n, "", dtype=object),
        truth_category=np.zeros(n, dtype=np.int8),
        truth_perturbation=np.full(n, "", dtype=object),
        feature_names=list(FEATURE_NAMES)[: columns["f"].shape[1]],
    )
