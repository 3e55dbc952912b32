"""The sanctioned accessor for FinOrg's weak-tag columns.

The three tag columns (``untrusted_ip``, ``untrusted_cookie``, ``ato``)
are *risk-engine outcomes*, not browser observables: a model that reads
them as features is training on a proxy of its own target.  The
fingerprinting pipeline therefore must never touch them — its input is
the 28-column feature matrix and the claimed user-agent, nothing else.

The fusion trainer is the one legitimate consumer: label propagation
*seeds* on the sparse ``ato`` tags and conditions on the infrastructure
tags, by design.  To keep that boundary auditable, all fusion code
reads tags through :func:`weak_labels` / :class:`WeakLabels` — and the
tripwire in ``tests/test_tag_boundary.py`` replaces the raw columns
with guards that raise on any read and runs the full fit/detect path to
prove the model-facing code never reads them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "WEAK_TAG_COLUMNS",
    "WeakLabels",
    "weak_labels",
]

WEAK_TAG_COLUMNS = ("untrusted_ip", "untrusted_cookie", "ato")


@dataclass(frozen=True)
class WeakLabels:
    """The three tag columns, as booleans, detached from the dataset."""

    untrusted_ip: np.ndarray
    untrusted_cookie: np.ndarray
    ato: np.ndarray

    def __post_init__(self) -> None:
        n = self.untrusted_ip.shape[0]
        if self.untrusted_cookie.shape[0] != n or self.ato.shape[0] != n:
            raise ValueError("weak-label columns are misaligned")

    def __len__(self) -> int:
        return int(self.untrusted_ip.shape[0])

    @property
    def ato_rate(self) -> float:
        """Marginal rate of the sparse seed tag."""
        return float(self.ato.mean()) if len(self) else 0.0


def weak_labels(dataset) -> WeakLabels:
    """Extract the tag columns for the fusion trainer.

    This is the only place outside the traffic simulator where the tag
    columns are read; copies are returned so the caller can never
    mutate the dataset through them.
    """
    return WeakLabels(
        untrusted_ip=np.asarray(dataset.untrusted_ip, dtype=bool).copy(),
        untrusted_cookie=np.asarray(dataset.untrusted_cookie, dtype=bool).copy(),
        ato=np.asarray(dataset.ato, dtype=bool).copy(),
    )
