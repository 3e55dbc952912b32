"""Core pipeline tests: preprocessing, clustering, detection, drift,
persistence, and the end-to-end facade."""

from datetime import date

import numpy as np
import pytest

from repro.browsers.profiles import BrowserProfile
from repro.browsers.useragent import Vendor, parse_ua_key
from repro.core.config import PipelineConfig
from repro.core.clustering import ClusterModel
from repro.core.detection import FraudDetector
from repro.core.drift import DriftDetector
from repro.core.pipeline import BrowserPolygraph
from repro.core.preprocessing import Preprocessor
from repro.fingerprint.collector import FingerprintCollector
from repro.fingerprint.features import FEATURE_SPECS, deviation_feature_indices
from repro.fingerprint.script import CollectionScript
from repro.fraudbrowsers.base import FraudProfile
from repro.fraudbrowsers.catalog import fraud_browser
from repro.traffic.generator import TrafficConfig, TrafficSimulator


class TestConfig:
    def test_defaults_match_paper(self):
        config = PipelineConfig()
        assert config.n_pca_components == 7
        assert config.n_clusters == 11
        assert config.outlier_contamination == 2e-5
        assert config.vendor_mismatch_risk == 20
        assert config.version_divisor == 4
        assert config.drift_accuracy_threshold == 0.98

    def test_with_overrides(self):
        config = PipelineConfig().with_overrides(n_clusters=6)
        assert config.n_clusters == 6
        assert config.n_pca_components == 7

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_pca_components": 0},
            {"n_clusters": 1},
            {"outlier_contamination": 0.9},
            {"version_divisor": 0},
            {"unknown_ua_policy": "explode"},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PipelineConfig(**kwargs)


class TestPreprocessor:
    def test_scales_only_deviation_columns(self, small_dataset):
        preprocessor = Preprocessor()
        scaled, _ = preprocessor.fit(small_dataset.matrix())
        for idx in [i for i, s in enumerate(FEATURE_SPECS) if s.kind == "time"]:
            assert set(np.unique(scaled[:, idx])) <= {0.0, 1.0}
        for idx in deviation_feature_indices()[:5]:
            assert abs(scaled[:, idx].mean()) < 1e-6

    def test_outlier_budget_respected(self, small_dataset):
        preprocessor = Preprocessor()
        _, mask = preprocessor.fit(small_dataset.matrix())
        expected = max(1, round(2e-5 * len(small_dataset)))
        assert int((~mask).sum()) == expected
        assert preprocessor.n_outliers_ == expected

    def test_removed_rows_are_never_pristine_legit_sessions(self, trained, small_dataset):
        # The paper verified none of the removed rows matched a pristine
        # legitimate browser; the ClusterModel automates that check by
        # rescuing rows that equal a lab reference fingerprint.
        mask = trained.cluster_model.inlier_mask_
        removed = np.nonzero(~mask)[0]
        for idx in removed:
            assert (
                small_dataset.truth_kind[idx] != "legit"
                or small_dataset.truth_perturbation[idx] != ""
            )

    def test_transform_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            Preprocessor().transform(np.zeros((2, 28)))


class TestClusterModel:
    def test_accuracy_matches_paper_band(self, trained):
        assert 0.985 <= trained.accuracy <= 1.0

    def test_cluster_table_covers_all_clusters(self, trained):
        table = trained.cluster_table
        assert set(table) == set(range(11))

    def test_majority_of_clusters_hold_user_agents(self, trained):
        populated = [c for c, uas in trained.cluster_table.items() if uas]
        assert 8 <= len(populated) <= 11

    def test_modern_chromium_era_clusters(self, trained):
        model = trained.cluster_model
        # Chrome and Edge of the same modern version share a cluster.
        assert model.expected_cluster("chrome-112") == model.expected_cluster("edge-112")
        # Different eras sit in different clusters.
        assert model.expected_cluster("chrome-112") != model.expected_cluster("chrome-105")
        assert model.expected_cluster("chrome-114") != model.expected_cluster("chrome-112")

    def test_firefox_clusters_apart_from_chromium(self, trained):
        model = trained.cluster_model
        assert model.expected_cluster("firefox-110") != model.expected_cluster("chrome-110")

    def test_predict_reference_vectors_land_in_expected_cluster(self, trained):
        model = trained.cluster_model
        for key in ("chrome-112", "firefox-110", "chrome-105"):
            parsed = parse_ua_key(key)
            vector = FingerprintCollector().collect(
                BrowserProfile(parsed.vendor, parsed.version).environment()
            )
            assert model.predict_cluster(vector) == model.expected_cluster(key)

    def test_unknown_ua_expected_cluster_none(self, trained):
        assert trained.cluster_model.expected_cluster("safari-16") is None
        assert trained.cluster_model.expected_cluster("chrome-250") is None

    def test_misaligned_inputs_rejected(self, small_dataset):
        model = ClusterModel()
        with pytest.raises(ValueError):
            model.fit(small_dataset.matrix(), ["x"] * 3)

    def test_predict_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            ClusterModel().predict_clusters(np.zeros((2, 28)))


class TestDetection:
    def test_genuine_sessions_not_flagged(self, trained):
        script = CollectionScript()
        for vendor, version in ((Vendor.CHROME, 112), (Vendor.FIREFOX, 110)):
            profile = BrowserProfile(vendor, version)
            payload = script.run(profile.environment(), profile.user_agent())
            result = trained.detect_payload(payload)
            assert not result.flagged
            assert result.risk_factor is None

    def test_cat2_fraud_cross_vendor_flagged_with_max_risk(self, trained):
        product = fraud_browser("GoLogin-3.3.23")
        profile = FraudProfile(product.full_name, parse_ua_key("firefox-110"))
        vector = FingerprintCollector().collect(product.environment(profile))
        result = trained.detect_session(vector, "firefox-110")
        assert result.flagged
        assert result.risk_factor == 20

    def test_cat2_fraud_far_version_flagged_with_version_risk(self, trained):
        product = fraud_browser("GoLogin-3.3.23")  # Chromium 114 engine
        profile = FraudProfile(product.full_name, parse_ua_key("chrome-60"))
        vector = FingerprintCollector().collect(product.environment(profile))
        result = trained.detect_session(vector, "chrome-60")
        assert result.flagged
        assert 10 <= result.risk_factor <= 20

    def test_cat2_fraud_same_cluster_not_flagged(self, trained):
        # Claiming a user-agent from the engine's own cluster evades
        # coarse-grained detection (the paper's non-flagged cases).
        product = fraud_browser("GoLogin-3.3.23")
        engine_cluster = trained.cluster_model.predict_cluster(
            FingerprintCollector().collect(
                product.environment(
                    FraudProfile(product.full_name, parse_ua_key("chrome-114"))
                )
            )
        )
        members = trained.cluster_model.cluster_table.get(engine_cluster, [])
        assert members, "engine cluster should hold user-agents"
        claimed = members[0]
        vector = FingerprintCollector().collect(
            product.environment(FraudProfile(product.full_name, parse_ua_key(claimed)))
        )
        assert not trained.detect_session(vector, claimed).flagged

    def test_unknown_ua_policy_ignore(self, trained):
        vector = FingerprintCollector().collect(
            BrowserProfile(Vendor.CHROME, 112).environment()
        )
        result = trained.detect_session(vector, "Mozilla/5.0 (X11) Gecko")
        assert not result.flagged
        assert result.expected_cluster is None

    def test_unknown_ua_policy_flag(self, small_dataset):
        config = PipelineConfig(unknown_ua_policy="flag")
        polygraph = BrowserPolygraph(config).fit(small_dataset)
        vector = FingerprintCollector().collect(
            BrowserProfile(Vendor.CHROME, 112).environment()
        )
        result = polygraph.detect_session(vector, "definitely-not-a-ua")
        assert result.flagged
        assert result.risk_factor == 20

    def test_batch_report_consistency(self, trained, small_dataset):
        report = trained.detect(small_dataset)
        assert len(report) == len(small_dataset)
        # Flagged implies a risk factor; unflagged implies none.
        assert np.all(report.risk_factors[report.flagged] >= 0)
        assert np.all(report.risk_factors[~report.flagged] == -1)
        # risk_over is a subset of flagged.
        assert np.all(report.flagged[report.risk_over(1)])

    def test_batch_matches_single_session_path(self, trained, small_dataset):
        subset = small_dataset.subset(np.arange(200))
        report = trained.detect(subset)
        for idx in range(0, 200, 37):
            single = trained.detect_session(
                subset.features[idx], str(subset.ua_keys[idx])
            )
            assert single.flagged == bool(report.flagged[idx])
            if single.flagged:
                assert single.risk_factor == int(report.risk_factors[idx])

    def test_detector_requires_fitted_model(self):
        with pytest.raises(ValueError):
            FraudDetector(ClusterModel())

    def test_flagged_sessions_enriched_in_fraud(self, trained, small_dataset):
        report = trained.detect(small_dataset)
        fraud = small_dataset.is_detectable_fraud()
        flagged_fraud_rate = fraud[report.flagged].mean()
        overall_fraud_rate = fraud.mean()
        assert flagged_fraud_rate > 10 * overall_fraud_rate

    def test_recall_on_detectable_fraud(self, trained, small_dataset):
        report = trained.detect(small_dataset)
        fraud = small_dataset.is_detectable_fraud()
        recall = report.flagged[fraud].mean()
        assert recall > 0.5  # paper: 67-84% per product


class TestDrift:
    @pytest.fixture(scope="class")
    def drift_window(self):
        config = TrafficConfig(
            start=date(2023, 7, 20), end=date(2023, 11, 10), seed=11
        ).scaled(20_000)
        return TrafficSimulator(config).generate()

    def test_stable_releases_keep_cluster(self, trained, drift_window):
        records = {
            r.ua_key: r for r in trained.drift_report(drift_window)
        }
        for key in ("chrome-116", "firefox-117", "edge-116"):
            if key not in records:
                continue
            record = records[key]
            assert not record.cluster_changed
            assert record.accuracy > 0.985

    def test_firefox_119_changes_cluster(self, trained, drift_window):
        records = {r.ua_key: r for r in trained.drift_report(drift_window)}
        assert "firefox-119" in records
        assert records["firefox-119"].cluster_changed
        assert records["firefox-119"].retrain_needed(0.98)

    def test_chrome_119_accuracy_drops(self, trained, drift_window):
        records = {r.ua_key: r for r in trained.drift_report(drift_window)}
        assert "chrome-119" in records
        assert records["chrome-119"].accuracy < 0.98

    def test_retrain_signal_raised(self, trained, drift_window):
        records = trained.drift_report(drift_window)
        assert trained.retrain_needed(records)

    def test_min_sessions_floor(self, trained, drift_window):
        records = trained.drift_report(drift_window, min_sessions=50)
        assert all(r.n_sessions >= 50 for r in records)

    def test_known_releases_not_rechecked(self, trained, drift_window):
        records = trained.drift_report(drift_window)
        trained_keys = set(trained.cluster_model.ua_to_cluster)
        assert all(r.ua_key not in trained_keys for r in records)

    def test_evaluate_release_missing_ua_rejected(self, trained, drift_window):
        detector = DriftDetector(trained.cluster_model)
        with pytest.raises(ValueError):
            detector.evaluate_release(drift_window, "chrome-999")

    def test_retraining_absorbs_new_releases(self, trained, small_dataset, drift_window):
        from repro.traffic.dataset import Dataset

        fresh = BrowserPolygraph().fit(
            Dataset.concatenate([small_dataset, drift_window])
        )
        records = fresh.drift_report(drift_window)
        assert not records or not fresh.retrain_needed(records)

    def test_window_with_no_new_releases_is_empty(self, trained, small_dataset):
        # Every release in the training window is already in the table,
        # so there is nothing to evaluate — and nothing to divide by.
        assert trained.drift_report(small_dataset) == []

    def test_huge_min_sessions_skips_every_release(self, trained, drift_window):
        records = trained.drift_report(
            drift_window, min_sessions=len(drift_window) + 1
        )
        assert records == []

    def test_release_without_prior_in_table_has_no_baseline(
        self, trained, drift_window
    ):
        import copy

        # Strip every Chrome release from the trained table: Chrome
        # releases in the window become "new", and none of them has a
        # same-vendor predecessor to compare clusters against.
        model = copy.copy(trained.cluster_model)
        model.ua_to_cluster = {
            ua: cluster
            for ua, cluster in model.ua_to_cluster.items()
            if not ua.startswith("chrome")
        }
        detector = DriftDetector(model)
        records = [
            r
            for r in detector.evaluate_window(drift_window, min_sessions=1)
            if r.ua_key.startswith("chrome")
        ]
        assert records
        for record in records:
            assert record.baseline_ua is None
            assert record.baseline_cluster is None
            # No baseline → a cluster change is undecidable, so only the
            # accuracy arm of the trigger can fire.
            assert not record.cluster_changed
            assert record.retrain_needed(0.98) == (record.accuracy < 0.98)


class TestPersistence:
    def test_save_load_roundtrip(self, trained, small_dataset, tmp_path):
        path = str(tmp_path / "model.json")
        trained.save(path)
        loaded = BrowserPolygraph.load(path)
        assert loaded.cluster_table == trained.cluster_table
        assert loaded.accuracy == pytest.approx(trained.accuracy)
        subset = small_dataset.subset(np.arange(300))
        a = trained.detect(subset)
        b = loaded.detect(subset)
        assert np.array_equal(a.flagged, b.flagged)
        assert np.array_equal(a.risk_factors, b.risk_factors)

    def test_save_unfitted_rejected(self, tmp_path):
        with pytest.raises(RuntimeError):
            BrowserPolygraph().save(str(tmp_path / "x.json"))

    def test_load_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(ValueError, match="unsupported"):
            BrowserPolygraph.load(str(path))


class TestFacade:
    def test_unfitted_usage_rejected(self, small_dataset):
        polygraph = BrowserPolygraph()
        assert not polygraph.is_fitted
        with pytest.raises(RuntimeError):
            polygraph.detect(small_dataset)
        with pytest.raises(RuntimeError):
            _ = polygraph.accuracy

    def test_wrong_feature_width_rejected(self, small_dataset):
        from repro.fingerprint.features import FEATURE_SPECS

        polygraph = BrowserPolygraph(specs=FEATURE_SPECS[:10])
        with pytest.raises(ValueError, match="features"):
            polygraph.fit(small_dataset)

    def test_fit_returns_self(self, small_dataset):
        polygraph = BrowserPolygraph()
        assert polygraph.fit(small_dataset) is polygraph
        assert polygraph.is_fitted


class TestVectorBatchPath:
    """detect_vectors: the batch API behind the scoring runtime."""

    def test_rows_match_single_session_path(self, trained, small_dataset):
        n = 64
        matrix = small_dataset.matrix()[:n]
        uas = list(small_dataset.ua_keys[:n])
        batched = trained.detect_vectors(matrix, uas)
        for row, ua, result in zip(matrix, uas, batched):
            single = trained.detect_session(row, ua)
            assert (result.predicted_cluster, result.flagged, result.risk_factor) == (
                single.predicted_cluster,
                single.flagged,
                single.risk_factor,
            )

    def test_misaligned_lengths_rejected(self, trained, small_dataset):
        matrix = small_dataset.matrix()[:4]
        with pytest.raises(ValueError):
            trained.detect_vectors(matrix, list(small_dataset.ua_keys[:3]))

    def test_one_dimensional_matrix_rejected(self, trained, small_dataset):
        with pytest.raises(ValueError):
            trained.detect_vectors(small_dataset.matrix()[0], ["chrome-112"])

    def test_before_fit_rejected(self, small_dataset):
        with pytest.raises(RuntimeError):
            BrowserPolygraph().detect_vectors(
                small_dataset.matrix()[:2], list(small_dataset.ua_keys[:2])
            )


class TestModelSwap:
    """Atomic model swaps: generation counter + retrain listeners."""

    def test_generation_bumps_on_every_fit(self, small_dataset):
        polygraph = BrowserPolygraph()
        assert polygraph.model_generation == 0
        polygraph.fit(small_dataset)
        assert polygraph.model_generation == 1
        polygraph.retrain(small_dataset)
        assert polygraph.model_generation == 2

    def test_snapshot_is_consistent_pair(self, small_dataset):
        polygraph = BrowserPolygraph().fit(small_dataset)
        generation, detector = polygraph.detection_snapshot()
        assert generation == polygraph.model_generation
        polygraph.retrain(small_dataset)
        new_generation, new_detector = polygraph.detection_snapshot()
        assert new_generation == generation + 1
        assert new_detector is not detector
        # The old snapshot detector still scores (in-flight batches).
        result = detector.evaluate_vectors(
            small_dataset.matrix()[:1], list(small_dataset.ua_keys[:1])
        )[0]
        assert result.predicted_cluster >= 0

    def test_snapshot_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            BrowserPolygraph().detection_snapshot()

    def test_listeners_fire_after_swap(self, small_dataset):
        polygraph = BrowserPolygraph()
        seen = []
        polygraph.add_retrain_listener(seen.append)
        polygraph.fit(small_dataset)
        assert seen == [1]
        polygraph.retrain(small_dataset)
        assert seen == [1, 2]
        polygraph.remove_retrain_listener(seen.append)
        polygraph.retrain(small_dataset)
        assert seen == [1, 2]

    def test_remove_unknown_listener_is_noop(self, small_dataset):
        BrowserPolygraph().remove_retrain_listener(lambda g: None)


class TestEscalation:
    def test_disabled_by_default(self, trained, small_dataset):
        result = trained.detect_session(
            small_dataset.matrix()[0], small_dataset.ua_keys[0]
        )
        escalated = trained.escalate_result(result, ("antBrowserInjected",))
        assert escalated is result

    def test_probe_escalates_to_vendor_mismatch_risk(self, small_dataset):
        config = PipelineConfig(enable_namespace_probe=True)
        polygraph = BrowserPolygraph(config=config).fit(small_dataset)
        result = polygraph.detect_session(
            small_dataset.matrix()[0], small_dataset.ua_keys[0]
        )
        escalated = polygraph.escalate_result(result, ("antBrowserInjected",))
        assert escalated.flagged
        assert escalated.risk_factor == config.vendor_mismatch_risk
        # No suspicious globals: untouched even with the probe enabled.
        assert polygraph.escalate_result(result, ()) is result
