"""Feature specs, collector, candidates, and collection script tests."""

import json

import numpy as np
import pytest

from repro.browsers.profiles import BrowserProfile
from repro.browsers.useragent import Vendor
from repro.fingerprint.browserprint import time_based_features
from repro.fingerprint.candidates import generate_candidates
from repro.fingerprint.collector import FingerprintCollector
from repro.fingerprint.features import (
    DEVIATION_FEATURES,
    FEATURE_NAMES,
    FEATURE_SPECS,
    FeatureSpec,
    N_DEVIATION,
    N_FEATURES,
    N_TIME,
    TIME_FEATURES,
    deviation_feature_indices,
)
from repro.fingerprint.script import (
    CollectionScript,
    FingerprintPayload,
    MAX_PAYLOAD_BYTES,
    MAX_SERVICE_TIME_MS,
)
from repro.jsengine.environment import JSEnvironment
from repro.jsengine.evolution import Engine, PRIMARY_INTERFACES



def _time_feature_indices():
    """Column indices of the binary time-based features."""
    return [i for i, spec in enumerate(FEATURE_SPECS) if spec.kind == "time"]

class TestFeatureSpecs:
    def test_paper_feature_counts(self):
        assert N_DEVIATION == 22
        assert N_TIME == 6
        assert N_FEATURES == 28

    def test_table8_order_starts_with_element(self):
        assert DEVIATION_FEATURES[0].interface == "Element"
        assert DEVIATION_FEATURES[1].interface == "Document"

    def test_deviation_set_matches_evolution_primaries(self):
        assert {s.interface for s in DEVIATION_FEATURES} == set(PRIMARY_INTERFACES)

    def test_feature_names_are_js_expressions(self):
        assert (
            FEATURE_NAMES[0]
            == "Object.getOwnPropertyNames(Element.prototype).length"
        )
        assert FEATURE_NAMES[-1].endswith(".prototype.hasOwnProperty('getPropertyValue')")

    def test_index_helpers_partition_columns(self):
        dev = deviation_feature_indices()
        time_idx = _time_feature_indices()
        assert sorted(dev + time_idx) == list(range(N_FEATURES))
        assert len(dev) == 22 and len(time_idx) == 6

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            FeatureSpec("weird", "Element")
        with pytest.raises(ValueError):
            FeatureSpec("time", "Element")  # missing prop
        with pytest.raises(ValueError):
            FeatureSpec("deviation", "Element", prop="x")

    def test_spec_keys_are_unique(self):
        keys = [s.key() for s in FEATURE_SPECS]
        assert len(set(keys)) == len(keys)


class TestCollector:
    def test_vector_length_and_dtype(self):
        env = JSEnvironment(Engine.CHROMIUM, 112)
        vector = FingerprintCollector().collect(env)
        assert vector.shape == (28,)
        assert vector.dtype == np.int32

    def test_time_features_are_binary(self):
        env = JSEnvironment(Engine.GECKO, 110)
        vector = FingerprintCollector().collect(env)
        for idx in _time_feature_indices():
            assert vector[idx] in (0, 1)

    def test_same_release_same_vector(self):
        a = FingerprintCollector().collect(JSEnvironment(Engine.CHROMIUM, 112))
        b = FingerprintCollector().collect(JSEnvironment(Engine.CHROMIUM, 112))
        assert np.array_equal(a, b)

    def test_vendor_split_visible_in_time_features(self):
        chrome = FingerprintCollector().collect(JSEnvironment(Engine.CHROMIUM, 110))
        firefox = FingerprintCollector().collect(JSEnvironment(Engine.GECKO, 110))
        time_idx = _time_feature_indices()
        assert any(chrome[i] != firefox[i] for i in time_idx)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            FingerprintCollector([])


class TestCandidates:
    @pytest.fixture(scope="class")
    def candidates(self):
        return generate_candidates()

    def test_counts_match_paper(self, candidates):
        assert len(candidates.deviation) == 200
        assert len(candidates.time_based) == 313
        assert len(candidates.all_specs) == 513

    def test_top22_is_the_table8_set(self, candidates):
        top22 = {s.interface for s in candidates.deviation[:22]}
        assert top22 == set(PRIMARY_INTERFACES)

    def test_ranking_is_descending(self, candidates):
        # deviation_std holds the normalized std; the selection itself is
        # ranked by raw std, so just confirm every selected feature varies.
        assert all(v > 0.0 for v in candidates.deviation_std.values())

    def test_reference_fingerprints_cover_releases(self, candidates):
        assert "chrome-112" in candidates.reference_fingerprints
        assert "firefox-102" in candidates.reference_fingerprints
        assert "edge-18" in candidates.reference_fingerprints

    def test_reference_vector_width(self, candidates):
        vector = candidates.reference_vector("chrome-112")
        assert vector.shape == (513,)
        assert candidates.reference_vector("safari-16") is None

    def test_time_based_features_helper(self):
        specs = time_based_features()
        assert len(specs) == 313
        assert all(s.kind == "time" for s in specs)


class TestCollectionScript:
    def test_payload_meets_finorg_budget(self):
        profile = BrowserProfile(Vendor.CHROME, 112)
        payload = CollectionScript().run(
            profile.environment(), profile.user_agent(), "s1"
        )
        assert payload.size_bytes <= MAX_PAYLOAD_BYTES
        assert payload.service_time_ms <= MAX_SERVICE_TIME_MS

    def test_wire_roundtrip(self):
        profile = BrowserProfile(Vendor.FIREFOX, 110)
        payload = CollectionScript().run(
            profile.environment(), profile.user_agent(), "s2"
        )
        parsed = FingerprintPayload.from_wire(payload.to_wire())
        assert parsed.session_id == "s2"
        assert parsed.user_agent == payload.user_agent
        assert parsed.values == payload.values

    def test_wire_format_is_compact_json(self):
        payload = FingerprintPayload("x", "ua", (1, 2, 3), 0.0)
        body = json.loads(payload.to_wire())
        assert body == {"sid": "x", "ua": "ua", "f": [1, 2, 3]}

    def test_malformed_wire_rejected(self):
        with pytest.raises(ValueError):
            FingerprintPayload.from_wire(b"not json")
        with pytest.raises(ValueError):
            FingerprintPayload.from_wire(b'{"sid": "x"}')

    def test_injectable_clock(self):
        ticks = iter([0.0, 0.050])
        payload = CollectionScript().run(
            JSEnvironment(Engine.CHROMIUM, 112),
            "ua",
            clock=lambda: next(ticks),
        )
        assert payload.service_time_ms == pytest.approx(50.0)

    def test_vector_matches_values(self):
        payload = FingerprintPayload("x", "ua", (5, 6), 0.0)
        assert payload.vector().tolist() == [5, 6]
