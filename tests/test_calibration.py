"""Calibration audit: the simulator must carry the paper's marginals.

The reproduction's Table 4-7 results are only meaningful if the
synthetic FinOrg traffic actually carries the paper's marginals: base
tag rates, release diversity, fraud prevalence, privacy marginals.  The
audit runs here, so a change to the generator cannot silently
decalibrate the experiments.
"""

from dataclasses import dataclass
from typing import List

import pytest

from repro.analysis.privacy import anonymity_figure
from repro.traffic.dataset import Dataset

_TAGS = ("untrusted_ip", "untrusted_cookie", "ato")


@dataclass(frozen=True)
class CalibrationCheck:
    """One audited marginal."""

    name: str
    paper_value: str
    measured: str
    within_tolerance: bool


def _check(name: str, paper: str, measured: float, low: float, high: float,
           fmt: str = "{:.4f}") -> CalibrationCheck:
    return CalibrationCheck(
        name=name,
        paper_value=paper,
        measured=fmt.format(measured),
        within_tolerance=low <= measured <= high,
    )


def audit_traffic(dataset: Dataset) -> List[CalibrationCheck]:
    """Audit a training-window dataset against the paper's marginals."""
    if len(dataset) < 1_000:
        raise ValueError("calibration audit needs at least 1000 sessions")
    n = len(dataset)
    rates = {tag: float(getattr(dataset, tag).mean()) for tag in _TAGS}
    survey = anonymity_figure(dataset)
    checks = [
        _check(
            "Untrusted_IP base rate", "51%",
            rates["untrusted_ip"], 0.47, 0.55,
        ),
        _check(
            "Untrusted_Cookie base rate", "49%",
            rates["untrusted_cookie"], 0.45, 0.53,
        ),
        _check(
            "ATO base rate", "0.43%",
            rates["ato"], 0.002, 0.008,
        ),
        _check(
            "distinct browser releases", "113",
            float(len(dataset.distinct_releases())), 60, 220, fmt="{:.0f}",
        ),
        _check(
            "detectable (cat 1/2) fraud prevalence", "~0.3% (inferred)",
            float(dataset.is_detectable_fraud().sum()) / n, 0.0005, 0.01,
        ),
        _check(
            "unique fingerprint share", "0.3%",
            survey.get("1", 0.0) / 100.0, 0.0, 0.02,
        ),
    ]
    large_sets = survey.get("51-500", 0.0) + survey.get("501-+", 0.0)
    checks.append(
        _check(
            "fingerprints in anonymity sets > 50", "95.6%",
            large_sets, 80.0, 100.0, fmt="{:.1f}",
        )
    )
    return checks


def test_training_window_is_calibrated(small_dataset):
    checks = audit_traffic(small_dataset)
    failing = [c for c in checks if not c.within_tolerance]
    assert not failing, "decalibrated marginals: " + "; ".join(
        f"{c.name}: measured {c.measured}, paper {c.paper_value}" for c in failing
    )


def test_audit_covers_the_key_marginals(small_dataset):
    names = {c.name for c in audit_traffic(small_dataset)}
    assert "Untrusted_IP base rate" in names
    assert "ATO base rate" in names
    assert "unique fingerprint share" in names
    assert "fingerprints in anonymity sets > 50" in names


def test_audit_rejects_tiny_datasets(small_dataset):
    import numpy as np

    with pytest.raises(ValueError):
        audit_traffic(small_dataset.subset(np.arange(100)))
