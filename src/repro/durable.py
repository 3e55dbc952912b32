"""One write path and one read path for every durable file.

Model files, the registry index, the rollout state and the serve
log's manifest and segments are all written by :func:`write_atomic`;
the JSON ones are read by
:func:`read_json`.  A write's rename is its commit point, so a crash
leaves the old file or the new one (and at worst a stale temp file the
next write of that path replaces), never a torn one.  Standard library
only: importing this module imports nothing else of ``repro``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable, Optional, Union

__all__ = ["UnreadableFileError", "read_json", "write_atomic"]


class UnreadableFileError(ValueError):
    """A durable file is torn, not JSON, fails its digest or has an
    unsupported format; the message starts with the file's path."""


def write_atomic(path: Union[str, Path], data: Union[bytes, memoryview, str]) -> int:
    """Durably replace ``path`` with ``data`` (a ``str`` is written as
    UTF-8): temp file, fsync, rename, fsync of the directory.  Returns
    the bytes written."""
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)
    return len(data)


def read_json(
    path: Union[str, Path],
    format_version: Optional[int] = None,
    digest: Optional[Callable[[dict], str]] = None,
) -> Any:
    """Parse the JSON document at ``path``, or raise :class:`UnreadableFileError`.

    ``format_version``, when given, must equal the document's field of
    that name.  ``digest``, when given, hashes a document without its
    ``sha256`` field; a recorded ``sha256`` must equal it.  A missing
    file raises ``FileNotFoundError``: whether absence is an error is
    the caller's decision.
    """
    path = Path(path)
    try:
        document = json.loads(path.read_bytes())
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise UnreadableFileError(f"{path}: not a JSON document: {exc}") from None
    if format_version is not None:
        found = document.get("format_version") if isinstance(document, dict) else None
        if found != format_version:
            raise UnreadableFileError(f"{path}: unsupported format {found!r}")
    if digest is not None and "sha256" in document:
        body = dict(document)
        recorded = str(body.pop("sha256"))
        actual = digest(body)
        if actual != recorded:
            raise UnreadableFileError(
                f"{path}: digest mismatch: recorded {recorded[:12]}..., "
                f"content hashes to {actual[:12]}... (corrupt or hand-edited)"
            )
    return document
