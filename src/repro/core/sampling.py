"""Stratified sampling for oversize training sets (paper Section 8).

The paper notes that if the FinOrg dataset grows beyond what training
can comfortably handle, Stratified Sampling keeps it manageable "while
ensuring the representativeness of diverse data segments ... even from
less popular browser instances".

:func:`stratified_sample` implements that: sessions are stratified by
their claimed user-agent and each stratum is capped, so downsampling a
10x larger window never starves Table 3's rare rows (legacy Edge,
ancient Chrome) the way uniform sampling would.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional

import numpy as np

from repro.traffic.dataset import Dataset

__all__ = ["stratified_sample"]


def stratified_sample(
    dataset: Dataset,
    max_per_stratum: int,
    min_per_stratum: int = 1,
    seed: Optional[int] = 0,
) -> Dataset:
    """Cap every user-agent stratum at ``max_per_stratum`` rows.

    Strata smaller than the cap are kept whole (never dropped below
    ``min_per_stratum``), so rare-but-legitimate populations survive.
    Row order is preserved, which keeps downstream runs deterministic.
    """
    if max_per_stratum < 1:
        raise ValueError("max_per_stratum must be >= 1")
    if min_per_stratum > max_per_stratum:
        raise ValueError("min_per_stratum cannot exceed max_per_stratum")

    rng = np.random.default_rng(seed)
    rows_by_stratum: Dict[str, list] = defaultdict(list)
    for idx, key in enumerate(dataset.ua_keys):
        rows_by_stratum[str(key)].append(idx)

    keep: list = []
    for key in sorted(rows_by_stratum):
        rows = rows_by_stratum[key]
        if len(rows) <= max_per_stratum:
            keep.extend(rows)
            continue
        picked = rng.choice(len(rows), size=max_per_stratum, replace=False)
        keep.extend(rows[i] for i in picked)

    keep_array = np.array(sorted(keep), dtype=np.int64)
    return dataset.subset(keep_array)
