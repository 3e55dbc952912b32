"""The ``/metrics`` exposition: the Prometheus text format, written here only.

Every part that reports into ``GET /metrics`` has a ``collect(out)``
that adds its samples to one :class:`Exposition`, made for that scrape
and rendered once.  It is not a store: each part keeps counting where
and under which lock it did, and reads its values when a scrape asks.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Mapping, Tuple

__all__ = ["Exposition"]

_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_ESCAPE = str.maketrans({"\\": "\\\\", "\n": "\\n", '"': '\\"'})


def _number(value) -> str:
    """``value`` spelled as the format reads a sample value."""
    if isinstance(value, int):  # bools too
        return str(int(value))
    value = float(value)
    if value.is_integer() and abs(value) < 2.0**53:
        return str(int(value))
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


class Exposition:
    """One scrape's samples, grouped by family in the order first seen."""

    def __init__(self) -> None:
        self._families: Dict[str, Tuple[str, List[str]]] = {}  # name -> (type, samples)

    def counter(self, name: str, value, **labels) -> None:
        self._add("counter", name, value, labels)

    def gauge(self, name: str, value, **labels) -> None:
        self._add("gauge", name, value, labels)

    def summary(self, name: str, quantiles: Mapping[float, float], **labels) -> None:
        """One sample per ``φ: value``, labelled ``quantile="φ"``."""
        for phi, value in quantiles.items():
            if not 0.0 <= phi <= 1.0:
                raise ValueError(f"quantile {phi!r} of {name} is outside [0, 1]")
            self._add("summary", name, value, {**labels, "quantile": _number(phi)})

    def _add(self, kind: str, name: str, value, labels: dict) -> None:
        family = self._families.get(name)
        if family is None:
            if not _NAME.match(name):
                raise ValueError(f"invalid metric name {name!r}")
            family = self._families[name] = (kind, [])
        elif family[0] != kind:
            raise ValueError(f"{name} is a {family[0]}, not a {kind}")
        key = name
        if labels:
            if not all(_NAME.match(label) and ":" not in label for label in labels):
                raise ValueError(f"invalid label name in {sorted(labels)}")
            pairs = ",".join(
                f'{label}="{str(text).translate(_ESCAPE)}"'
                for label, text in labels.items()
            )
            key = f"{name}{{{pairs}}}"
        family[1].append(f"{key} {_number(value)}")

    def render(self) -> str:
        """One ``# TYPE`` line ahead of each family, then its samples."""
        lines: List[str] = []
        for name, (kind, samples) in self._families.items():
            lines.append(f"# TYPE {name} {kind}")
            lines.extend(samples)
        return "\n".join(lines) + "\n"
