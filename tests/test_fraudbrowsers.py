"""Fraud browser simulator tests."""

import numpy as np
import pytest

from repro.browsers.useragent import parse_ua_key
from repro.fingerprint.collector import FingerprintCollector
from repro.fraudbrowsers.base import Category, FraudProfile
from repro.fraudbrowsers.catalog import FRAUD_BROWSERS, fraud_browser
from repro.fraudbrowsers.profiles import build_experiment_profiles
from repro.jsengine.environment import JSEnvironment
from repro.jsengine.evolution import Engine


def _claimed(key: str):
    return parse_ua_key(key)


class TestCatalog:
    def test_table1_inventory_present(self):
        names = {b.name for b in FRAUD_BROWSERS}
        for expected in (
            "Linken Sphere", "ClonBrowser", "Incogniton", "GoLogin",
            "CheBrowser", "VMLogin", "Octo Browser", "Sphere",
            "AntBrowser", "AdsPower",
        ):
            assert expected in names

    def test_category_membership(self):
        assert fraud_browser("Linken Sphere-8.93").category is Category.IMPOSSIBLE_FINGERPRINT
        assert fraud_browser("GoLogin-3.3.23").category is Category.FIXED_ENGINE
        assert fraud_browser("AdsPower-5.4.20").category is Category.ENGINE_FOLLOWS_UA

    def test_lookup_by_bare_name(self):
        assert fraud_browser("Incogniton").version == "3.2.7.7"

    def test_unknown_browser_rejected(self):
        with pytest.raises(KeyError):
            fraud_browser("HonestBrowser-1.0")

    def test_category_filter(self):
        cat2 = [b for b in FRAUD_BROWSERS if b.category is Category.FIXED_ENGINE]
        assert len(cat2) >= 7
        assert all(b.category is Category.FIXED_ENGINE for b in cat2)

    def test_sphere_ships_ancient_engine(self):
        assert fraud_browser("Sphere-1.3").engine_version == 61


class TestEnvironments:
    def test_category2_ignores_claimed_ua(self):
        product = fraud_browser("GoLogin-3.3.23")
        env_ff = product.environment(
            FraudProfile(product.full_name, _claimed("firefox-110"))
        )
        env_chrome = product.environment(
            FraudProfile(product.full_name, _claimed("chrome-90"))
        )
        collector = FingerprintCollector()
        assert np.array_equal(collector.collect(env_ff), collector.collect(env_chrome))
        assert env_ff.engine is Engine.CHROMIUM
        assert env_ff.version == product.engine_version

    def test_category2_matches_genuine_engine(self):
        product = fraud_browser("GoLogin-3.3.23")
        env = product.environment(
            FraudProfile(product.full_name, _claimed("firefox-110"))
        )
        genuine = JSEnvironment(Engine.CHROMIUM, product.engine_version)
        collector = FingerprintCollector()
        assert np.array_equal(collector.collect(env), collector.collect(genuine))

    def test_category3_follows_claimed_ua(self):
        product = fraud_browser("AdsPower-5.4.20")
        env = product.environment(
            FraudProfile(product.full_name, _claimed("firefox-110"))
        )
        assert env.engine is Engine.GECKO
        assert env.version == 110

    def test_category1_matches_no_genuine_browser(self):
        product = fraud_browser("Linken Sphere-8.93")
        collector = FingerprintCollector()
        vector = collector.collect(
            product.environment(FraudProfile(product.full_name, _claimed("chrome-112"), 3))
        )
        for version in range(59, 120):
            genuine = collector.collect(JSEnvironment(Engine.CHROMIUM, version))
            assert not np.array_equal(vector, genuine)

    def test_category1_profiles_differ_from_each_other(self):
        product = fraud_browser("ClonBrowser-4.6.6")
        collector = FingerprintCollector()
        vectors = [
            collector.collect(
                product.environment(
                    FraudProfile(product.full_name, _claimed("chrome-112"), seed)
                )
            )
            for seed in range(5)
        ]
        distinct = {tuple(v.tolist()) for v in vectors}
        assert len(distinct) == 5

    def test_category1_deterministic_per_profile(self):
        product = fraud_browser("Linken Sphere-8.93")
        profile = FraudProfile(product.full_name, _claimed("chrome-100"), 9)
        collector = FingerprintCollector()
        assert np.array_equal(
            collector.collect(product.environment(profile)),
            collector.collect(product.environment(profile)),
        )


class TestExperimentProfiles:
    _TABLE = {
        0: ["chrome-110", "chrome-113", "edge-110"],
        1: ["firefox-101", "firefox-114"],
        2: ["chrome-59", "chrome-68"],
        3: ["chrome-114", "edge-114"],
        4: [],
    }

    def test_gologin_two_per_cluster(self):
        profiles = build_experiment_profiles(fraud_browser("GoLogin-3.3.23"), self._TABLE)
        assert len(profiles) == 8  # 4 populated clusters x 2

    def test_incogniton_one_per_cluster(self):
        profiles = build_experiment_profiles(
            fraud_browser("Incogniton-3.2.7.7"), self._TABLE
        )
        assert len(profiles) == 4

    def test_octo_adds_random_extras(self):
        profiles = build_experiment_profiles(
            fraud_browser("Octo Browser-1.10"), self._TABLE
        )
        assert len(profiles) == 9  # 8 + 1 randomized

    def test_sphere_uses_canned_profiles(self):
        profiles = build_experiment_profiles(fraud_browser("Sphere-1.3"), self._TABLE)
        assert len(profiles) == 9
        assert profiles[0].claimed.key() == "chrome-63"

    def test_profiles_are_deterministic(self):
        a = build_experiment_profiles(fraud_browser("GoLogin-3.3.23"), self._TABLE)
        b = build_experiment_profiles(fraud_browser("GoLogin-3.3.23"), self._TABLE)
        assert [p.claimed.key() for p in a] == [p.claimed.key() for p in b]
