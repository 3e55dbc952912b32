"""Section 8 extensions: stratified sampling and the namespace probe."""

from collections import Counter

import numpy as np
import pytest

from repro.browsers.profiles import BrowserProfile
from repro.browsers.useragent import Vendor, parse_ua_key
from repro.core.config import PipelineConfig
from repro.core.pipeline import BrowserPolygraph
from repro.core.sampling import stratified_sample
from repro.fingerprint.script import CollectionScript
from repro.fraudbrowsers.base import FraudProfile
from repro.fraudbrowsers.catalog import fraud_browser
from repro.fraudbrowsers.namespace_probe import (
    scan_environment,
    scan_globals,
)


def stratum_counts(dataset) -> Counter:
    """Sessions per user-agent stratum."""
    return Counter(str(key) for key in dataset.ua_keys)


class TestStratifiedSampling:
    def test_caps_large_strata(self, small_dataset):
        sampled = stratified_sample(small_dataset, max_per_stratum=50)
        counts = stratum_counts(sampled)
        assert max(counts.values()) <= 50

    def test_keeps_small_strata_whole(self, small_dataset):
        before = stratum_counts(small_dataset)
        sampled = stratified_sample(small_dataset, max_per_stratum=50)
        after = stratum_counts(sampled)
        for key, count in before.items():
            if count <= 50:
                assert after.get(key) == count

    def test_preserves_all_strata(self, small_dataset):
        sampled = stratified_sample(small_dataset, max_per_stratum=10)
        assert set(stratum_counts(sampled)) == set(stratum_counts(small_dataset))

    def test_deterministic(self, small_dataset):
        a = stratified_sample(small_dataset, max_per_stratum=30, seed=1)
        b = stratified_sample(small_dataset, max_per_stratum=30, seed=1)
        assert a.session_ids.tolist() == b.session_ids.tolist()

    def test_training_on_sample_preserves_table_structure(self, small_dataset, trained):
        sampled = stratified_sample(small_dataset, max_per_stratum=400)
        assert len(sampled) < len(small_dataset)
        polygraph = BrowserPolygraph().fit(sampled)
        # Rare user-agents survive the downsampling into the table.
        full_table = trained.cluster_model.ua_to_cluster
        sampled_table = polygraph.cluster_model.ua_to_cluster
        assert set(sampled_table) == set(full_table)
        assert polygraph.accuracy > 0.98

    def test_invalid_parameters_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            stratified_sample(small_dataset, max_per_stratum=0)
        with pytest.raises(ValueError):
            stratified_sample(small_dataset, max_per_stratum=5, min_per_stratum=9)


class TestNamespaceProbe:
    def test_genuine_browser_is_clean(self):
        env = BrowserProfile(Vendor.CHROME, 112).environment()
        assert scan_environment(env) == []

    def test_antbrowser_detected_by_name(self):
        ant = fraud_browser("AntBrowser-2023.05")
        env = ant.environment(FraudProfile(ant.full_name, parse_ua_key("chrome-112")))
        hits = scan_environment(env)
        assert {h.product for h in hits} == {"AntBrowser"}
        assert "ANTBROWSER" in {h.global_name for h in hits}

    def test_linken_sphere_and_clonbrowser_detected(self):
        for label, product_name in (
            ("Linken Sphere-8.93", "Linken Sphere"),
            ("ClonBrowser-4.6.6", "ClonBrowser"),
        ):
            product = fraud_browser(label)
            env = product.environment(
                FraudProfile(product.full_name, parse_ua_key("chrome-110"))
            )
            hits = scan_environment(env)
            assert any(h.product == product_name for h in hits)

    def test_generic_wrapper_heuristic(self):
        hits = scan_globals(["__wrapper__", "spoofEngine", "fetch"])
        assert len(hits) == 2
        assert all(h.product == "unknown-wrapper" for h in hits)

    def test_standard_globals_never_hit(self):
        hits = scan_globals(["window", "document", "localStorage"])
        assert hits == []

    def test_payload_carries_probe_findings(self):
        ant = fraud_browser("AntBrowser-2023.05")
        env = ant.environment(FraudProfile(ant.full_name, parse_ua_key("chrome-112")))
        payload = CollectionScript().run(env, "chrome-112")
        assert "ANTBROWSER" in payload.suspicious_globals
        assert payload.size_bytes <= 1024  # still within the budget

    def test_clean_payload_omits_probe_field(self):
        profile = BrowserProfile(Vendor.FIREFOX, 110)
        payload = CollectionScript().run(profile.environment(), profile.user_agent())
        assert payload.suspicious_globals == ()
        assert b'"g"' not in payload.to_wire()


class TestProbeEscalation:
    @pytest.fixture(scope="class")
    def probing_polygraph(self, small_dataset):
        config = PipelineConfig(enable_namespace_probe=True)
        return BrowserPolygraph(config).fit(small_dataset)

    def _antbrowser_payload(self, claimed_key: str):
        ant = fraud_browser("AntBrowser-2023.05")
        env = ant.environment(FraudProfile(ant.full_name, parse_ua_key(claimed_key)))
        return CollectionScript().run(env, claimed_key)

    def test_escalates_even_when_cluster_matches(self, probing_polygraph):
        # AntBrowser's Chromium 112 engine claiming a same-cluster UA
        # evades the clustering check but not the probe.
        engine_cluster = probing_polygraph.cluster_model.predict_cluster(
            self._antbrowser_payload("chrome-112").vector()
        )
        claimed = probing_polygraph.cluster_model.cluster_table[engine_cluster][0]
        payload = self._antbrowser_payload(claimed)
        result = probing_polygraph.detect_payload(payload)
        assert result.flagged
        assert result.risk_factor == 20

    def test_probe_disabled_by_default(self, trained):
        engine_cluster = trained.cluster_model.predict_cluster(
            self._antbrowser_payload("chrome-112").vector()
        )
        claimed = trained.cluster_model.cluster_table[engine_cluster][0]
        result = trained.detect_payload(self._antbrowser_payload(claimed))
        assert not result.flagged

    def test_clean_sessions_unaffected(self, probing_polygraph):
        profile = BrowserProfile(Vendor.CHROME, 112)
        payload = CollectionScript().run(profile.environment(), profile.user_agent())
        assert not probing_polygraph.detect_payload(payload).flagged
