"""Binary columnar segments for the session store.

A sealed segment holds its records as one uncompressed NumPy ``.npz``
archive with a fixed column set (session ids, user-agent strings,
precomputed ``vendor-version`` keys, the int32 feature matrix, epoch
days, and JSON-encoded suspicious-globals).  Uncompressed matters:
every member of such an archive is a plain ``.npy`` blob at a known
file offset, so :func:`read_segment` can hand back **memory-mapped
views** — an export touches no row bytes until the training code does.

A segment is serialized in memory and written with
:func:`repro.durable.write_atomic`, so a crash mid-seal leaves either
the old JSONL segment or the finished columnar one, never a
half-written archive.
"""

from __future__ import annotations

import io
import json
import zipfile
from pathlib import Path
from typing import Dict, List, Sequence, Union

import numpy as np

from repro.browsers.useragent import parse_user_agent
from repro.durable import write_atomic

__all__ = [
    "COLUMNS",
    "read_segment",
    "records_to_columns",
    "segment_records",
    "write_segment",
]

# Column name -> whether it is eligible for memory-mapping (fixed-width
# dtypes only; everything NumPy writes is fixed-width, so all are).
COLUMNS = ("sid", "ua", "ua_key", "f", "day", "g")

# The segment mechanics below (durable write, header-only counting,
# mmap reads) are column-set agnostic: callers with a different schema
# — the session event log stores per-event rows — pass their own
# ``column_set``; the session store keeps the historical default.


def records_to_columns(records: List[dict]) -> Dict[str, np.ndarray]:
    """Convert JSONL-style session records to the columnar column set.

    ``ua_key`` is computed here, once, at seal time — exports from a
    columnar segment never re-parse user-agent strings.
    """
    if not records:
        raise ValueError("cannot build a columnar segment from zero records")
    return {
        "sid": np.array([r["sid"] for r in records], dtype="U"),
        "ua": np.array([r["ua"] for r in records], dtype="U"),
        "ua_key": np.array(
            [parse_user_agent(r["ua"]).key() for r in records], dtype="U"
        ),
        "f": np.array([r["f"] for r in records], dtype=np.int32),
        "day": np.array(
            [r["day"] for r in records], dtype="datetime64[D]"
        ).astype(np.int64),
        "g": np.array(
            [
                json.dumps(r["g"], separators=(",", ":")) if r.get("g") else ""
                for r in records
            ],
            dtype="U",
        ),
    }


def write_segment(
    path: Union[str, Path],
    columns: Dict[str, np.ndarray],
    column_set: Sequence[str] = COLUMNS,
) -> int:
    """Durably write a columnar segment; returns its byte size."""
    missing = [name for name in column_set if name not in columns]
    if missing:
        raise ValueError(f"columnar segment missing columns: {missing}")
    buffer = io.BytesIO()
    # np.savez (uncompressed) keeps every member ZIP_STORED, which is
    # what makes the mmap read path possible.
    np.savez(buffer, **{name: columns[name] for name in column_set})
    return write_atomic(path, buffer.getbuffer())


def segment_records(
    path: Union[str, Path], count_column: str = "sid"
) -> int:
    """Record count of a columnar segment, reading only one npy header."""
    with zipfile.ZipFile(path, "r") as archive:
        with archive.open(f"{count_column}.npy") as member:
            version = np.lib.format.read_magic(member)
            shape, _, _ = _read_header(member, version)
    return int(shape[0])


def read_segment(
    path: Union[str, Path],
    mmap: bool = True,
    column_set: Sequence[str] = COLUMNS,
) -> Dict[str, np.ndarray]:
    """Load a columnar segment, memory-mapping columns when possible.

    Returned arrays are read-only views over the file for every member
    stored uncompressed and C-contiguous; anything else falls back to a
    normal :func:`numpy.load` read.  Callers must treat them as
    immutable (they are opened copy-on-write, so accidental writes
    cannot corrupt the store).
    """
    path = Path(path)
    columns: Dict[str, np.ndarray] = {}
    pending: List[str] = []
    if mmap:
        try:
            with zipfile.ZipFile(path, "r") as archive:
                for name in column_set:
                    member = f"{name}.npy"
                    info = archive.getinfo(member)
                    array = _mmap_member(path, archive, info)
                    if array is None:
                        pending.append(name)
                    else:
                        columns[name] = array
        except (OSError, KeyError, ValueError, zipfile.BadZipFile):
            columns, pending = {}, list(column_set)
    else:
        pending = list(column_set)
    if pending:
        with np.load(path, allow_pickle=False) as archive:
            for name in pending:
                columns[name] = archive[name]
    return columns


def _read_header(handle, version):
    if version == (1, 0):
        return np.lib.format.read_array_header_1_0(handle)
    if version == (2, 0):
        return np.lib.format.read_array_header_2_0(handle)
    raise ValueError(f"unsupported npy format version {version}")


def _mmap_member(path: Path, archive: zipfile.ZipFile, info) -> "np.ndarray":
    """Memory-map one ``.npy`` member of an uncompressed zip, or None."""
    if info.compress_type != zipfile.ZIP_STORED:
        return None
    with archive.open(info.filename) as member:
        version = np.lib.format.read_magic(member)
        shape, fortran, dtype = _read_header(member, version)
        if fortran or dtype.hasobject:
            return None
        data_offset = member.tell()
    # The zip local header precedes the member payload: fixed 30 bytes
    # plus the (local) name and extra fields, which can differ from the
    # central directory's, so they are read from the file itself.
    with path.open("rb") as raw:
        raw.seek(info.header_offset + 26)
        name_len = int.from_bytes(raw.read(2), "little")
        extra_len = int.from_bytes(raw.read(2), "little")
    payload_start = info.header_offset + 30 + name_len + extra_len
    return np.memmap(
        path,
        dtype=dtype,
        mode="c",
        offset=payload_start + data_offset,
        shape=shape,
        order="C",
    )
