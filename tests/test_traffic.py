"""Traffic simulator tests: popularity, tags, dataset, generator."""

from collections import Counter
from datetime import date

import numpy as np
import pytest

from repro.browsers.useragent import Vendor
from repro.fingerprint.features import FEATURE_NAMES
from repro.traffic.dataset import Dataset
from repro.traffic.generator import TrafficConfig, TrafficSimulator
from repro.traffic.popularity import PopularityModel
from repro.traffic.sessions import SessionKind
from repro.traffic.tags import Persona, TagModel, TagRates


class TestPopularity:
    @pytest.fixture(scope="class")
    def model(self):
        return PopularityModel()

    def test_shares_normalized(self, model):
        shares = model.shares_on(date(2023, 5, 1))
        assert sum(s.share for s in shares) == pytest.approx(1.0)

    def test_latest_versions_dominate(self, model):
        day = date(2023, 5, 1)
        shares = {(s.vendor, s.version): s.share for s in model.shares_on(day)}
        assert shares[(Vendor.CHROME, 112)] > shares[(Vendor.CHROME, 100)]
        assert shares[(Vendor.CHROME, 112)] > 0.05

    def test_unreleased_versions_absent(self, model):
        shares = {(s.vendor, s.version) for s in model.shares_on(date(2023, 5, 1))}
        assert (Vendor.CHROME, 115) not in shares

    def test_ancient_stratum_present(self, model):
        shares = {(s.vendor, s.version) for s in model.shares_on(date(2023, 5, 1))}
        assert (Vendor.EDGE, 18) in shares
        assert (Vendor.CHROME, 60) in shares

    def test_firefox_92_excluded(self, model):
        shares = {(s.vendor, s.version) for s in model.shares_on(date(2023, 5, 1))}
        assert (Vendor.FIREFOX, 92) not in shares
        assert (Vendor.FIREFOX, 93) in shares

    def test_sampling_respects_weights(self, model, rng):
        picks = model.sample(date(2023, 5, 1), 4000, rng)
        counts = Counter(picks)
        # The most common pick must be a recent Chrome release.
        (vendor, version), _ = counts.most_common(1)[0]
        assert vendor is Vendor.CHROME and version >= 110

    def test_sampling_zero_count(self, model, rng):
        assert model.sample(date(2023, 5, 1), 0, rng) == []


class TestTagModel:
    def test_default_rates_calibrated_to_paper(self):
        model = TagModel()
        ordinary = model.rates_for(Persona.ORDINARY)
        assert 0.45 <= ordinary.untrusted_ip <= 0.55
        assert ordinary.ato < 0.01
        fraudster = model.rates_for(Persona.FRAUDSTER)
        assert fraudster.untrusted_ip > 0.9
        assert fraudster.ato > ordinary.ato * 5

    def test_sampling_matches_rates(self, rng):
        model = TagModel()
        personas = tuple([Persona.FRAUDSTER] * 5000)
        ip, cookie, ato = model.sample_many(personas, rng)
        assert abs(ip.mean() - 0.95) < 0.02
        assert abs(cookie.mean() - 0.92) < 0.02

    def test_single_sample_shape(self, rng):
        triple = TagModel().sample(Persona.ORDINARY, rng)
        assert len(triple) == 3
        assert all(isinstance(v, bool) for v in triple)

    def test_rate_override(self):
        model = TagModel({Persona.ORDINARY: TagRates(1.0, 1.0, 1.0)})
        assert model.rates_for(Persona.ORDINARY).ato == 1.0

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            TagRates(1.5, 0.5, 0.0)


class TestTrafficConfig:
    def test_scaled_preserves_ratio(self):
        config = TrafficConfig().scaled(20_500)
        assert config.n_sessions == 20_500
        assert config.cat1_sessions == 20
        assert config.cat2_sessions == 32

    def test_fraud_total(self):
        config = TrafficConfig(
            cat1_sessions=1, cat2_sessions=2, cat3_sessions=3, cat4_sessions=4
        )
        assert config.fraud_total() == 10

    def test_too_small_config_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            TrafficSimulator(TrafficConfig(n_sessions=100))


class TestGenerator:
    def test_row_counts_match_config(self, small_dataset):
        config = TrafficConfig().scaled(15_000)
        assert len(small_dataset) == 15_000
        kinds = Counter(small_dataset.truth_kind.tolist())
        assert kinds[SessionKind.FRAUD.value] == config.fraud_total()
        assert kinds[SessionKind.DERIVATIVE.value] == config.brave_sessions

    def test_deterministic_given_seed(self):
        a = TrafficSimulator(TrafficConfig(seed=42).scaled(3000)).generate()
        b = TrafficSimulator(TrafficConfig(seed=42).scaled(3000)).generate()
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.ua_keys, b.ua_keys)
        assert np.array_equal(a.ato, b.ato)

    def test_different_seeds_differ(self):
        a = TrafficSimulator(TrafficConfig(seed=1).scaled(3000)).generate()
        b = TrafficSimulator(TrafficConfig(seed=2).scaled(3000)).generate()
        assert not np.array_equal(a.features, b.features)

    def test_feature_names_attached(self, small_dataset):
        assert small_dataset.feature_names == list(FEATURE_NAMES)

    def test_tag_rates_near_paper(self, small_dataset):
        rates = {
            tag: float(getattr(small_dataset, tag).mean())
            for tag in ("untrusted_ip", "untrusted_cookie", "ato")
        }
        assert abs(rates["untrusted_ip"] - 0.51) < 0.03
        assert abs(rates["untrusted_cookie"] - 0.49) < 0.03
        assert rates["ato"] < 0.01

    def test_many_distinct_releases(self, small_dataset):
        # The paper's window saw 113 releases; ours should be comparable.
        assert len(small_dataset.distinct_releases()) > 60

    def test_dates_inside_window(self, small_dataset):
        config = TrafficConfig()
        days = small_dataset.days.astype("datetime64[D]")
        assert days.min() >= np.datetime64(config.start)
        assert days.max() < np.datetime64(config.end)

    def test_legit_sessions_match_reference_surface(self, small_dataset):
        # An unperturbed legit Chrome session equals the lab fingerprint.
        from repro.browsers.profiles import BrowserProfile
        from repro.fingerprint.collector import FingerprintCollector

        mask = (
            (small_dataset.truth_kind == "legit")
            & (small_dataset.ua_keys == "chrome-112")
            & (small_dataset.truth_perturbation == "")
        )
        assert mask.sum() > 0
        row = small_dataset.features[np.nonzero(mask)[0][0]]
        reference = FingerprintCollector().collect(
            BrowserProfile(Vendor.CHROME, 112).environment()
        )
        assert np.array_equal(row, reference)

    def test_category2_fraud_has_engine_fingerprint(self, small_dataset):
        from repro.fingerprint.collector import FingerprintCollector
        from repro.fraudbrowsers.catalog import fraud_browser
        from repro.jsengine.environment import JSEnvironment
        from repro.jsengine.evolution import Engine

        mask = small_dataset.truth_browser == "GoLogin-3.2.19"
        if not mask.any():
            pytest.skip("no GoLogin sessions in this sample")
        engine_version = fraud_browser("GoLogin-3.2.19").engine_version
        reference = FingerprintCollector().collect(
            JSEnvironment(Engine.CHROMIUM, engine_version)
        )
        for row in small_dataset.features[mask][:5]:
            assert np.array_equal(row, reference)

    def test_session_ids_unique(self, small_dataset):
        ids = small_dataset.session_ids.tolist()
        assert len(set(ids)) == len(ids)

    def test_candidate_space_generation(self):
        from repro.fingerprint.candidates import generate_candidates

        candidates = generate_candidates()
        dataset = TrafficSimulator(
            TrafficConfig(seed=3).scaled(1500), specs=candidates.all_specs
        ).generate()
        assert dataset.n_features == 513


class TestDataset:
    def test_subset_by_mask(self, small_dataset):
        mask = small_dataset.ua_keys == "chrome-112"
        subset = small_dataset.subset(mask)
        assert len(subset) == int(mask.sum())
        assert set(subset.ua_keys.tolist()) == {"chrome-112"}

    def test_concatenate(self, small_dataset):
        first = small_dataset.subset(np.arange(100))
        second = small_dataset.subset(np.arange(100, 150))
        combined = Dataset.concatenate([first, second])
        assert len(combined) == 150

    def test_concatenate_mismatched_columns_rejected(self, small_dataset):
        clone = small_dataset.subset(np.arange(10))
        clone.feature_names = ["x"] * small_dataset.n_features
        with pytest.raises(ValueError):
            Dataset.concatenate([small_dataset.subset(np.arange(10)), clone])

    def test_save_load_roundtrip(self, small_dataset, tmp_path):
        path = str(tmp_path / "traffic.npz")
        subset = small_dataset.subset(np.arange(500))
        subset.save(path)
        loaded = Dataset.load(path)
        assert np.array_equal(loaded.features, subset.features)
        assert loaded.ua_keys.tolist() == subset.ua_keys.tolist()
        assert np.array_equal(loaded.ato, subset.ato)
        assert loaded.feature_names == subset.feature_names
        assert loaded.days.tolist() == subset.days.tolist()

    def test_row_materializes_session(self, small_dataset):
        session = small_dataset.row(0)
        assert len(session.features) == small_dataset.n_features
        assert session.truth is not None

    def test_misaligned_columns_rejected(self, small_dataset):
        with pytest.raises(ValueError, match="misaligned"):
            Dataset(
                features=small_dataset.features[:10],
                ua_keys=small_dataset.ua_keys[:9],
                user_agents=small_dataset.user_agents[:10],
                session_ids=small_dataset.session_ids[:10],
                days=small_dataset.days[:10],
                untrusted_ip=small_dataset.untrusted_ip[:10],
                untrusted_cookie=small_dataset.untrusted_cookie[:10],
                ato=small_dataset.ato[:10],
                truth_kind=small_dataset.truth_kind[:10],
                truth_browser=small_dataset.truth_browser[:10],
                truth_category=small_dataset.truth_category[:10],
                truth_perturbation=small_dataset.truth_perturbation[:10],
            )

    def test_fraud_masks(self, small_dataset):
        fraud = small_dataset.is_fraud()
        detectable = small_dataset.is_detectable_fraud()
        assert detectable.sum() <= fraud.sum()
        assert set(small_dataset.truth_category[detectable].tolist()) <= {1, 2}
