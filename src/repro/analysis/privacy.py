"""Privacy analysis (paper Section 7.4).

Two measurements establish that the 28 coarse-grained features cannot
track individual users:

* **Anonymity sets** (Figure 5) — the share of fingerprints in
  anonymity sets of various sizes; the paper finds only 0.3% unique
  fingerprints and 95.6% in sets larger than 50.
* **Feature entropy** (Table 7) — Shannon and normalized entropy per
  collected attribute; the user-agent itself remains the most diverse
  attribute, so the features add no identifiability beyond what the
  user-agent already exposes.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.ml.metrics import (
    anonymity_survey,
    normalized_shannon_entropy,
    shannon_entropy,
)
from repro.traffic.dataset import Dataset

__all__ = ["anonymity_figure", "feature_entropy_table"]


def _fingerprints(dataset: Dataset) -> List[Tuple]:
    return [tuple(row) for row in dataset.features.tolist()]


def anonymity_figure(dataset: Dataset) -> Dict[str, float]:
    """Percentage of fingerprints per anonymity-set-size bucket (Fig 5)."""
    return anonymity_survey(_fingerprints(dataset))


def feature_entropy_table(
    dataset: Dataset, top_n: int = 8
) -> List[Tuple[str, float, float]]:
    """Table 7: entropy per attribute, user-agent included, sorted.

    Returns ``(name, entropy_bits, normalized_entropy)`` rows sorted by
    normalized entropy, truncated to ``top_n`` (the paper lists the
    user-agent plus the seven most diverse features).
    """
    rows: List[Tuple[str, float, float]] = []
    ua_values = dataset.ua_keys.tolist()
    rows.append(
        (
            "user-agent",
            shannon_entropy(ua_values),
            normalized_shannon_entropy(ua_values),
        )
    )
    names = dataset.feature_names or [
        f"feature_{i}" for i in range(dataset.n_features)
    ]
    for idx, name in enumerate(names):
        column = dataset.features[:, idx].tolist()
        rows.append(
            (name, shannon_entropy(column), normalized_shannon_entropy(column))
        )
    rows.sort(key=lambda row: -row[2])
    return rows[:top_n]
