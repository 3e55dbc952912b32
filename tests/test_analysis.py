"""Privacy analysis, sensitivity sweeps, and table rendering."""

import numpy as np
import pytest

from repro.analysis.privacy import (
    anonymity_figure,
    feature_entropy_table,
)
from repro.analysis.reporting import render_table
from repro.analysis.sensitivity import (
    clustering_protocol,
    sweep_clusters,
    sweep_features,
    sweep_pca,
)


class TestPrivacy:
    def test_anonymity_shares_sum_to_100(self, small_dataset):
        survey = anonymity_figure(small_dataset)
        assert sum(survey.values()) == pytest.approx(100.0)

    def test_most_fingerprints_hide_in_large_sets(self, small_dataset):
        survey = anonymity_figure(small_dataset)
        large = survey.get("51-500", 0.0) + survey.get("501-+", 0.0)
        assert large > 80.0  # paper: 95.6% in sets larger than 50

    def test_unique_share_is_small(self, small_dataset):
        # Paper: 0.3% unique.  Uniques come from Category-1 fraud and
        # rare perturbation combos.
        share = anonymity_figure(small_dataset).get("1", 0.0) / 100.0
        assert 0.0 < share < 0.02

    def test_unique_fingerprints_are_mostly_fraud(self, small_dataset):
        from collections import Counter

        fingerprints = [tuple(r) for r in small_dataset.features.tolist()]
        counts = Counter(fingerprints)
        unique_rows = [i for i, fp in enumerate(fingerprints) if counts[fp] == 1]
        kinds = Counter(small_dataset.truth_kind[unique_rows].tolist())
        assert kinds.get("fraud", 0) >= 0.6 * len(unique_rows)

    def test_user_agent_tops_entropy_table(self, small_dataset):
        rows = feature_entropy_table(small_dataset)
        assert rows[0][0] == "user-agent"
        # Normalized entropies are sorted descending.
        normalized = [r[2] for r in rows]
        assert normalized == sorted(normalized, reverse=True)

    def test_element_family_among_most_diverse_features(self, small_dataset):
        rows = feature_entropy_table(small_dataset, top_n=8)
        names = " ".join(name for name, _, _ in rows[1:])
        assert "Element" in names  # matches the paper's Table 7 shape

    def test_entropy_table_respects_top_n(self, small_dataset):
        assert len(feature_entropy_table(small_dataset, top_n=5)) == 5


class TestSensitivitySweeps:
    def test_sweep_clusters_accuracy_band(self, small_dataset):
        rows = sweep_clusters(
            small_dataset.matrix(), list(small_dataset.ua_keys), ks=(5, 11, 15)
        )
        ks = [k for k, _ in rows]
        accuracies = {k: acc for k, acc in rows}
        assert ks == [5, 11, 15]
        assert all(acc > 0.97 for acc in accuracies.values())
        # Fewer clusters never hurt the majority metric (paper Table 10).
        assert accuracies[5] >= accuracies[15] - 0.005

    def test_sweep_pca_band(self, small_dataset):
        rows = sweep_pca(
            small_dataset.matrix(), list(small_dataset.ua_keys), components=(6, 7)
        )
        assert [r[0] for r in rows] == [6, 7]
        assert all(acc > 0.97 for _, _, acc in rows)

    def test_sweep_features_grows_columns(self, small_dataset):
        base = list(range(28))
        rows = sweep_features(
            small_dataset.matrix(),
            list(small_dataset.ua_keys),
            feature_steps=[base, base[:20]],
        )
        assert rows[0][0] == 28 and rows[1][0] == 20

    def test_protocol_on_separable_blobs(self, rng):
        centers = np.array(
            [
                [0.0, 0.0, 0.0],
                [10.0, 0.0, 0.0],
                [0.0, 10.0, 0.0],
                [10.0, 10.0, 0.0],
                [5.0, 5.0, 10.0],
            ]
        )
        data = np.repeat(centers, 40, axis=0) + rng.normal(0, 0.05, (200, 3))
        labels = [f"g{i}" for i in range(5) for _ in range(40)]
        outcome = clustering_protocol(data, labels)
        assert outcome.accuracy > 0.99
        assert outcome.k == 5

    def test_protocol_rejects_misaligned_labels(self, rng):
        with pytest.raises(ValueError):
            clustering_protocol(rng.normal(size=(10, 3)), ["x"] * 4)


class TestReporting:
    def test_renders_header_and_rows(self):
        text = render_table(["A", "Bee"], [(1, 2.5), ("xx", 3.25)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("A")
        assert "2.50" in text and "3.25" in text

    def test_alignment_width(self):
        text = render_table(["col"], [("longvalue",), ("s",)])
        lines = text.splitlines()
        assert len(lines[2]) == len("longvalue")

    def test_bool_formatting(self):
        text = render_table(["x"], [(True,), (False,)])
        assert "yes" in text and "no" in text

    def test_float_digits(self):
        text = render_table(["x"], [(1.23456,)], float_digits=4)
        assert "1.2346" in text
