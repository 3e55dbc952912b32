"""A stdlib checker of the Prometheus text format, and the ``/metrics``
keys the end-to-end benchmark reads.  Not a test module itself.

:func:`violations` lists every rule a scrape breaks: one ``# TYPE`` line
per family, ahead of its samples; each family's samples together; valid
metric and label names; label values quoted and escaped; sample values
that parse; no sample twice; and, in a ``summary``, a ``quantile`` label
on every sample but ``_sum``/``_count``, holding a float in [0, 1].
Every family must be typed.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Dict, List, Tuple

_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_LABEL = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")
_TYPES = ("counter", "gauge", "summary", "histogram", "untyped")
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n"}
_SUFFIXES = {"summary": ("_sum", "_count"), "histogram": ("_bucket", "_sum", "_count")}


def _value(text: str) -> float:
    if text in ("+Inf", "-Inf", "NaN"):
        return float(text.lower().lstrip("+"))
    if not re.fullmatch(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?", text):
        raise ValueError(text)
    return float(text)


def _sample(line: str) -> Tuple[str, Dict[str, str], float]:
    """``(name, labels, value)`` of one sample line; ``ValueError`` if malformed."""
    match = _NAME.match(line)
    if match is None:
        raise ValueError("no metric name")
    name, rest = match.group(), line[match.end():]
    labels: Dict[str, str] = {}
    if rest.startswith("{"):
        rest = rest[1:]
        while not rest.startswith("}"):
            match = _LABEL.match(rest)
            if match is None or rest[match.end():match.end() + 2] != '="':
                raise ValueError("bad label name")
            label, rest = match.group(), rest[match.end() + 2:]
            value, i = [], 0
            while rest[i] != '"':
                if rest[i] == "\\":
                    if rest[i + 1] not in _ESCAPES:
                        raise ValueError(f"bad escape in label {label}")
                    value.append(_ESCAPES[rest[i + 1]])
                    i += 2
                else:
                    value.append(rest[i])
                    i += 1
            if label in labels:
                raise ValueError(f"label {label} twice")
            labels[label] = "".join(value)
            rest = rest[i + 1:]
            if rest.startswith(","):
                rest = rest[1:]
            elif not rest.startswith("}"):
                raise ValueError("labels not closed")
        rest = rest[1:]
    fields = rest.split(" ")
    if fields[0] != "" or len(fields) not in (2, 3):
        raise ValueError("no single space before the value")
    return name, labels, _value(fields[1])


def violations(text: str) -> List[str]:
    """Every rule of the text format ``text`` breaks (empty when none)."""
    problems: List[str] = []
    types: Dict[str, str] = {}
    seen_samples = set()
    closed = set()  # families whose group has ended
    current = None
    if not text.endswith("\n"):
        problems.append("the exposition does not end with a newline")
    for number, line in enumerate(text.splitlines(), 1):
        where = f"line {number}: {line!r}"
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(" ")
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4 or not _NAME.fullmatch(parts[2]) or parts[3] not in _TYPES:
                    problems.append(f"{where}: malformed TYPE line")
                    continue
                family = parts[2]
                if family in types:
                    problems.append(f"{where}: second TYPE line for {family}")
                elif family in closed or family == current:
                    problems.append(f"{where}: TYPE line after samples of {family}")
                types[family] = parts[3]
                if current is not None and current != family:
                    closed.add(current)
                current = family
            continue
        try:
            name, labels, value = _sample(line)
        except (ValueError, IndexError) as exc:
            problems.append(f"{where}: malformed sample ({exc})")
            continue
        family = name
        for base, kind in types.items():
            if name != base and name.startswith(base) and name[len(base):] in _SUFFIXES.get(kind, ()):
                family = base
        if family not in types:
            problems.append(f"{where}: {family} has no TYPE line")
        if family != current:
            if family in closed:
                problems.append(f"{where}: samples of {family} are not together")
            if current is not None:
                closed.add(current)
            current = family
        key = (name, tuple(sorted(labels.items())))
        if key in seen_samples:
            problems.append(f"{where}: sample given twice")
        seen_samples.add(key)
        if types.get(family) == "summary" and name == family:
            quantile = labels.get("quantile")
            try:
                phi = _value(quantile) if quantile is not None else None
            except ValueError:
                phi = None
            if phi is None or not 0.0 <= phi <= 1.0:
                problems.append(f"{where}: summary sample without a float quantile in [0, 1]")
    return problems


def collected(part) -> Dict[str, float]:
    """The samples ``part.collect`` reports, checked well-formed."""
    from repro.metrics import Exposition

    out = Exposition()
    part.collect(out)
    text = out.render()
    assert violations(text) == [], text
    return samples(text)


def samples(text: str) -> Dict[str, float]:
    """``name{labels}`` -> value, keys spelled as the scrape spells them."""
    out: Dict[str, float] = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            out[key] = _value(value)
    return out


# ----------------------------------------------------------------------
# what the end-to-end benchmark reads


def harness():
    """``(parse_prometheus, derive)`` of the benchmark's own harness."""
    path = str(Path(__file__).resolve().parents[1] / "benchmarks" / "e2e")
    if path not in sys.path:
        sys.path.insert(0, path)
    from e2ebench.rounds import derive
    from e2ebench.server import parse_prometheus

    return parse_prometheus, derive


# Keys ``rounds.derive`` and ``rounds.check_properties`` read from a
# scrape; a family read over its label sets is listed by its labels.
HARNESS_KEYS_ONE_PROCESS = (
    "polygraph_runtime_cache_hits",
    "polygraph_runtime_cache_misses",
    "polygraph_runtime_cache_evictions",
    "polygraph_runtime_batches_total",
    "polygraph_runtime_batched_requests_total",
    "polygraph_ingest_backpressure_pauses",
    "polygraph_ingest_collect_requests",
    "polygraph_ingest_batches",
    "polygraph_ingest_batch_rows",
    "polygraph_payloads_rejected",
    'polygraph_payloads_rejected_by_reason{reason="malformed"}',
    *(
        f'polygraph_coverage_{name}_total{{vendor="{vendor}"}}'
        for name in ("observed", "unknown")
        for vendor in ("chrome", "edge", "firefox", "other")
    ),
)
# A cluster no longer has the zero-copy, backpressure, ring-occupancy or
# failover families derive also reads: it reads them as 0, and no
# workload property reads them.
HARNESS_KEYS_CLUSTER = (
    "polygraph_cluster_shards",
    "polygraph_ingest_backpressure_pauses",
    "polygraph_ingest_batches",
    "polygraph_ingest_batch_rows",
    "polygraph_session_revisions_total",
    "polygraph_session_active",
    *(
        f'polygraph_transport_{name}{{shard="{shard}"}}'
        for name in ("cache_hits_total", "cache_misses_total")
        for shard in ("s0", "s1")
    ),
)


def missing_harness_keys(text: str, keys) -> List[str]:
    """The ``keys`` the harness's own parser does not find in ``text``;
    also runs its ``derive`` over the scrape (it must not raise)."""
    parse_prometheus, derive = harness()
    parsed = parse_prometheus(text)
    derive(parsed, None, {})
    return [key for key in keys if key not in parsed]
