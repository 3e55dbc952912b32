"""Weak-tag boundary tripwire.

The three risk-engine tag columns (``untrusted_ip``, ``untrusted_cookie``,
``ato``) must never feed the fingerprinting model: they are proxies of
the detection target, and a pipeline that reads them trains on its own
answer key.  These tests replace the raw columns with guards that raise
on *any* read and run the full model-facing paths over the guarded
dataset — if fit/detect/serve ever consumes a tag, the guard detonates
with the offending column's name.  The paper's Table 4 accounting
(:mod:`repro.analysis.experiments`) reads them to describe flagged
batches; no model does.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.pipeline import BrowserPolygraph
from repro.service.scoring import ScoringService
from repro.traffic.replay import iter_wire_payloads

WEAK_TAG_COLUMNS = ("untrusted_ip", "untrusted_cookie", "ato")


class WeakLabelLeak(RuntimeError):
    """A model-facing code path read a weak-tag column."""


class _GuardedColumn:
    """Stand-in for a tag column that detonates on any read.

    Only ``shape`` survives (the dataset's alignment check needs it);
    indexing, iteration, casting, or reduction raises
    :class:`WeakLabelLeak` with the column name, so the tripwire test
    points straight at the offending code path.
    """

    def __init__(self, name: str, length: int) -> None:
        self._name = name
        self.shape = (length,)

    def _leak(self, *args, **kwargs):
        raise WeakLabelLeak(
            f"model-facing code read weak-tag column {self._name!r}"
        )

    __getitem__ = _leak
    __iter__ = _leak
    __array__ = _leak
    __len__ = _leak
    astype = _leak
    sum = _leak
    mean = _leak
    tolist = _leak
    copy = _leak


def with_guarded_tags(dataset):
    """A shallow dataset copy whose tag columns raise on access."""
    n = len(dataset)
    return replace(
        dataset, **{name: _GuardedColumn(name, n) for name in WEAK_TAG_COLUMNS}
    )


class TestGuardMechanics:
    def test_guard_trips_on_every_read_surface(self, small_dataset):
        guarded = with_guarded_tags(small_dataset)
        for name in WEAK_TAG_COLUMNS:
            column = getattr(guarded, name)
            with pytest.raises(WeakLabelLeak, match=name):
                column[0]
            with pytest.raises(WeakLabelLeak, match=name):
                np.asarray(column)
            with pytest.raises(WeakLabelLeak, match=name):
                column.sum()
            with pytest.raises(WeakLabelLeak, match=name):
                list(column)

    def test_guard_preserves_alignment_check(self, small_dataset):
        # Construction must survive: the dataset's own __post_init__
        # validates column lengths via .shape, which the guard exposes.
        guarded = with_guarded_tags(small_dataset)
        assert len(guarded) == len(small_dataset)


class TestModelFacingPathsNeverReadTags:
    def test_fit_and_detect_on_guarded_dataset(self, small_dataset):
        guarded = with_guarded_tags(small_dataset.rows(0, 4_000))
        pipeline = BrowserPolygraph().fit(guarded)
        report = pipeline.detect(guarded)
        assert report.flagged.shape[0] == 4_000

    def test_serving_path_on_guarded_dataset(self, trained, small_dataset):
        guarded = with_guarded_tags(small_dataset.rows(0, 64))
        service = ScoringService(trained)
        for wire in iter_wire_payloads(guarded):
            assert service.score_wire(wire).accepted
