"""Node graph, label propagation, and the persistable fusion model."""

import json
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest

from repro.core.pipeline import BrowserPolygraph
from repro.fusion.labels import weak_labels
from repro.fusion.model import FusionModel, load_fusion_document
from repro.fusion.propagation import (
    PropagationConfig,
    build_node_index,
    propagate,
    seed_scores,
    staleness_bucket,
)
from repro.fusion.staleness import release_date_for, staleness_for


@pytest.fixture(scope="module")
def fusion_model(trained, small_dataset):
    return FusionModel.train(small_dataset, trained.cluster_model)


class TestPropagationConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_neighbors": 0},
            {"alpha": 0.0},
            {"alpha": 1.0},
            {"max_iterations": -1},
            {"tolerance": 0.0},
            {"shrinkage": -1.0},
            {"tag_scale": 0.0},
            {"staleness_bucket_days": 0.0},
            {"max_staleness_buckets": -1},
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            replace(PropagationConfig(), **overrides)


class TestStaleness:
    def test_known_release_has_a_ship_date(self):
        assert release_date_for("chrome-112") is not None

    def test_unknown_release_degrades_to_fresh(self):
        assert release_date_for("nonsense-999") is None
        assert staleness_for("nonsense-999", date(2023, 6, 1)) == 0.0

    def test_missing_day_degrades_to_fresh(self):
        assert staleness_for("chrome-112", None) == 0.0

    def test_staleness_grows_with_the_session_date(self):
        released = release_date_for("chrome-112")
        on_release = staleness_for("chrome-112", released)
        later = staleness_for("chrome-112", released + timedelta(days=120))
        assert on_release == 0.0
        assert later == 120.0

    def test_sessions_before_release_clamp_to_zero(self):
        released = release_date_for("chrome-112")
        early = staleness_for("chrome-112", released - timedelta(days=30))
        assert early == 0.0

    def test_bucketing_is_capped(self):
        config = PropagationConfig()
        days = np.array([0.0, 44.0, 45.0, 400.0, 10_000.0])
        buckets = staleness_bucket(days, config)
        assert buckets.tolist() == [0, 0, 1, 5, 5]


class TestNodeGraph:
    def _index(self, config=None):
        config = config or PropagationConfig()
        digests = ["a", "a", "b", "b", "b", "c"]
        projected = np.array(
            [[0.0, 0.0], [0.2, 0.0], [5.0, 5.0], [5.1, 5.0], [5.0, 5.2],
             [10.0, 0.0]]
        )
        ip = np.array([0, 0, 1, 1, 1, 0], dtype=bool)
        cookie = np.zeros(6, dtype=bool)
        staleness = np.array([0.0, 0.0, 120.0, 120.0, 120.0, 0.0])
        return build_node_index(
            digests, projected, ip, cookie, staleness, config
        )

    def test_sessions_collapse_by_key(self):
        index = self._index()
        assert len(index) == 3
        assert index.counts.tolist() == [2.0, 3.0, 1.0]
        assert index.node_of.tolist() == [0, 0, 1, 1, 1, 2]
        # Key carries (digest, ip, cookie, staleness-bucket).
        assert index.keys[1] == ("b", 1, 0, 2)

    def test_embeddings_mean_the_member_projections(self):
        index = self._index()
        assert index.embeddings[0][:2] == pytest.approx([0.1, 0.0])
        assert index.embeddings.shape == (3, 5)  # 2 PCA + ip/cookie/bucket

    def test_seed_scores_shrink_toward_base(self):
        index = self._index()
        config = PropagationConfig(shrinkage=10.0)
        seeds = np.array([0, 0, 1, 1, 0, 0], dtype=bool)
        shrunk, base = seed_scores(index, seeds, config)
        assert base == pytest.approx(2 / 6)
        # Node 1 holds both seeds: (2 + 10*base) / (3 + 10).
        assert shrunk[1] == pytest.approx((2 + 10 * base) / 13)
        # Un-seeded nodes sit below base (pure shrinkage).
        assert shrunk[2] < base

    def test_member_mask_keeps_the_holdout_blind(self):
        index = self._index()
        config = PropagationConfig(shrinkage=0.0)
        seeds = np.array([0, 0, 1, 1, 0, 0], dtype=bool)
        fit_only = np.array([1, 1, 1, 0, 0, 1], dtype=bool)
        shrunk, base = seed_scores(
            index, seeds, config, member_mask=fit_only
        )
        # Only the masked-in seed counts: node 1 has 1 seed / 1 member.
        assert base == pytest.approx(1 / 4)
        assert shrunk[1] == pytest.approx(1.0)

    def test_propagation_converges_and_spreads(self):
        index = self._index()
        config = PropagationConfig(n_neighbors=2)
        seeds = np.array([0.0, 0.5, 0.0])
        result = propagate(index.embeddings, seeds, config)
        assert result.converged
        assert result.iterations <= config.max_iterations
        # Neighbors of the seeded node pick up mass.
        assert result.node_scores[0] > 0.0

    def test_non_convergence_falls_back_to_seeds(self):
        index = self._index()
        config = replace(
            PropagationConfig(), max_iterations=1, tolerance=1e-300
        )
        seeds = np.array([0.1, 0.5, 0.0])
        result = propagate(index.embeddings, seeds, config)
        assert not result.converged
        assert np.array_equal(result.node_scores, seeds)

    def test_single_node_graph_survives(self):
        config = PropagationConfig()
        index = build_node_index(
            ["only"],
            np.zeros((1, 2)),
            np.zeros(1, dtype=bool),
            np.zeros(1, dtype=bool),
            np.zeros(1),
            config,
        )
        result = propagate(index.embeddings, np.array([0.3]), config)
        assert result.node_scores.shape == (1,)


class TestFusionModel:
    def test_training_summary(self, fusion_model, small_dataset):
        assert fusion_model.n_nodes > 50
        assert fusion_model.trained_sessions == len(small_dataset)
        assert fusion_model.converged
        assert 0.0 < fusion_model.base_rate < 0.05
        assert fusion_model.reliability["n"] == len(small_dataset) // 2

    def test_exact_node_hit(self, fusion_model, small_dataset):
        labels = weak_labels(small_dataset)
        days = small_dataset.days.astype("datetime64[D]").astype(object)
        idx = 0
        opinion = fusion_model.second_opinion(
            small_dataset.features[idx],
            str(small_dataset.user_agents[idx]),
            day=days[idx],
            untrusted_ip=bool(labels.untrusted_ip[idx]),
            untrusted_cookie=bool(labels.untrusted_cookie[idx]),
        )
        assert opinion.matched_node
        assert 0.0 <= opinion.probability <= 1.0

    def test_unseen_fingerprint_takes_nearest_node(
        self, fusion_model, small_dataset
    ):
        values = tuple(int(v) + 997 for v in small_dataset.features[0])
        opinion = fusion_model.second_opinion(
            values, str(small_dataset.user_agents[0])
        )
        assert not opinion.matched_node
        assert 0.0 <= opinion.probability <= 1.0

    def test_unparseable_user_agent_degrades_to_fresh(self, fusion_model):
        opinion = fusion_model.second_opinion(
            (0,) * 28, "Not A Browser/0.0", day=date(2023, 6, 1)
        )
        assert opinion.staleness_days == 0.0

    def test_save_load_round_trip(self, fusion_model, trained, tmp_path):
        path = tmp_path / "fusion.json"
        digest = fusion_model.save(path)
        assert load_fusion_document(path)["sha256"] == digest
        restored = FusionModel.load(path, cluster_model=trained.cluster_model)
        assert restored.node_keys == fusion_model.node_keys
        assert np.allclose(restored.node_scores, fusion_model.node_scores)
        assert np.allclose(
            restored.node_embeddings, fusion_model.node_embeddings
        )
        assert restored.calibrator.base_rate == fusion_model.base_rate
        original = fusion_model.second_opinion((1,) * 28, "ua")
        loaded = restored.second_opinion((1,) * 28, "ua")
        assert loaded.probability == pytest.approx(original.probability)

    def test_tampered_document_rejected(self, fusion_model, tmp_path):
        path = tmp_path / "fusion.json"
        fusion_model.save(path)
        document = json.loads(path.read_text())
        document["node_scores"][0] = 0.999
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="digest"):
            load_fusion_document(path)

    def test_binding_to_a_different_pipeline_rejected(
        self, fusion_model, small_dataset
    ):
        other = BrowserPolygraph().fit(small_dataset.rows(0, 3_000))
        with pytest.raises(ValueError, match="different cluster model"):
            fusion_model.bind(other.cluster_model)

    def test_empty_tag_population(self, trained, small_dataset):
        subset = small_dataset.rows(0, 2_000)
        no_tags = replace(subset, ato=np.zeros(len(subset), dtype=bool))
        model = FusionModel.train(no_tags, trained.cluster_model)
        assert model.base_rate == 0.0
        opinion = model.second_opinion(
            subset.features[0], str(subset.user_agents[0])
        )
        assert opinion.probability == 0.0
        assert opinion.lift == 0.0

    def test_all_tagged_population(self, trained, small_dataset):
        subset = small_dataset.rows(0, 2_000)
        all_tags = replace(subset, ato=np.ones(len(subset), dtype=bool))
        model = FusionModel.train(all_tags, trained.cluster_model)
        assert model.base_rate == 1.0
        opinion = model.second_opinion(
            subset.features[0], str(subset.user_agents[0])
        )
        assert opinion.probability == 1.0
        assert opinion.lift == pytest.approx(1.0)

    def test_non_convergent_training_falls_back(
        self, trained, small_dataset
    ):
        config = replace(
            PropagationConfig(), max_iterations=1, tolerance=1e-300
        )
        model = FusionModel.train(
            small_dataset.rows(0, 2_000), trained.cluster_model, config
        )
        assert not model.converged
        opinion = model.second_opinion(
            small_dataset.features[0], str(small_dataset.user_agents[0])
        )
        assert 0.0 <= opinion.probability <= 1.0
