"""Weak-tag boundary tripwire.

The three risk-engine tag columns (``untrusted_ip``, ``untrusted_cookie``,
``ato``) must never feed the fingerprinting model: they are proxies of
the detection target, and a pipeline that reads them trains on its own
answer key.  These tests replace the raw columns with guards that raise
on *any* read and run the full model-facing paths over the guarded
dataset — if fit/detect/serve ever consumes a tag, the guard detonates
with the offending column's name.

The fusion trainer is the one sanctioned consumer, and only through
:func:`repro.fusion.labels.weak_labels`.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.pipeline import BrowserPolygraph
from repro.fusion.labels import WEAK_TAG_COLUMNS, WeakLabels, weak_labels
from repro.fusion.model import FusionModel
from repro.service.scoring import ScoringService
from repro.traffic.replay import iter_wire_payloads


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
            f"model-facing code read weak-tag column {self._name!r}; "
            "only repro.fusion.labels.weak_labels may consume it"
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
        dataset,
        untrusted_ip=_GuardedColumn("untrusted_ip", n),
        untrusted_cookie=_GuardedColumn("untrusted_cookie", n),
        ato=_GuardedColumn("ato", n),
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

    def test_sanctioned_accessor_detonates_on_guarded_dataset(
        self, small_dataset
    ):
        # Proof that even the accessor reads through the guarded
        # columns — there is no side channel.
        with pytest.raises(WeakLabelLeak):
            weak_labels(with_guarded_tags(small_dataset))


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

    def test_fusion_training_requires_the_tags(self, trained, small_dataset):
        # The trainer is the sanctioned consumer: on a guarded dataset
        # it must detonate (it genuinely reads the tags), and on the
        # raw dataset it must succeed.
        guarded = with_guarded_tags(small_dataset.rows(0, 2_000))
        with pytest.raises(WeakLabelLeak):
            FusionModel.train(guarded, trained.cluster_model)
        model = FusionModel.train(
            small_dataset.rows(0, 2_000), trained.cluster_model
        )
        assert model.n_nodes > 0


class TestWeakLabelsAccessor:
    def test_returns_detached_boolean_copies(self, small_dataset):
        labels = weak_labels(small_dataset)
        assert labels.untrusted_ip.dtype == bool
        assert labels.untrusted_cookie.dtype == bool
        assert labels.ato.dtype == bool
        assert len(labels) == len(small_dataset)
        before = bool(small_dataset.ato[0])
        labels.ato[0] = not before
        assert bool(small_dataset.ato[0]) == before  # copy, not a view

    def test_ato_rate_is_the_sparse_seed_rate(self, small_dataset):
        labels = weak_labels(small_dataset)
        assert 0.0 < labels.ato_rate < 0.05

    def test_misaligned_columns_rejected(self):
        with pytest.raises(ValueError):
            WeakLabels(
                untrusted_ip=np.zeros(3, dtype=bool),
                untrusted_cookie=np.zeros(3, dtype=bool),
                ato=np.zeros(2, dtype=bool),
            )
