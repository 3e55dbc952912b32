"""Per-day time series over a traffic window.

Operational views of a deployment window: daily session volume, daily
flag rate, and per-release adoption curves (how a new version's share
grows after launch).  They give the drift analysis calendar context
for a library caller — the paper's checks are meaningful
precisely because new releases ramp to dominant share within weeks.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.detection import DetectionReport
from repro.traffic.dataset import Dataset

__all__ = ["adoption_curve", "daily_flag_rate", "daily_volume"]


def _days(dataset: Dataset) -> np.ndarray:
    return dataset.days.astype("datetime64[D]")


def daily_volume(dataset: Dataset) -> List[Tuple[str, int]]:
    """Sessions per calendar day, sorted by day."""
    days = _days(dataset)
    unique, counts = np.unique(days, return_counts=True)
    return [(str(day), int(count)) for day, count in zip(unique, counts)]


def daily_flag_rate(
    dataset: Dataset, report: DetectionReport
) -> List[Tuple[str, float, int]]:
    """(day, flag rate, sessions) per calendar day.

    ``report`` must come from evaluating exactly ``dataset``.
    """
    if len(report) != len(dataset):
        raise ValueError("report does not match the dataset")
    days = _days(dataset)
    flagged_by_day: Dict[np.datetime64, int] = defaultdict(int)
    total_by_day: Dict[np.datetime64, int] = defaultdict(int)
    for day, flagged in zip(days, report.flagged):
        total_by_day[day] += 1
        if flagged:
            flagged_by_day[day] += 1
    return [
        (str(day), flagged_by_day[day] / total, total)
        for day, total in sorted(total_by_day.items())
    ]


def adoption_curve(
    dataset: Dataset, ua_key: str, window_days: Optional[int] = None
) -> List[Tuple[str, float]]:
    """Daily traffic share of one release (its adoption ramp).

    Returns ``(day, share)`` for each day the dataset covers; restrict
    with ``window_days`` to the first N days after the release first
    appears.
    """
    days = _days(dataset)
    matches = dataset.ua_keys == ua_key
    if not matches.any():
        raise ValueError(f"no sessions for {ua_key!r}")
    unique_days = np.unique(days)
    first_seen = days[matches].min()
    curve = []
    for day in unique_days:
        if day < first_seen:
            continue
        if window_days is not None and (day - first_seen).astype(int) >= window_days:
            break
        day_mask = days == day
        share = float(matches[day_mask].sum()) / float(day_mask.sum())
        curve.append((str(day), share))
    return curve
