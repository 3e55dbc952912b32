"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.browsers.useragent import (
    Vendor,
    format_user_agent,
    parse_ua_key,
    parse_user_agent,
    ua_key,
)
from repro.core.risk import risk_factor, user_agent_distance
from repro.ml.elbow import relative_wcss_gain
from repro.ml.kmeans import KMeans
from repro.ml.metrics import (
    majority_cluster_accuracy,
    normalized_shannon_entropy,
    shannon_entropy,
)
from repro.ml.pca import PCA
from repro.ml.scaler import StandardScaler

_vendors = st.sampled_from(list(Vendor))
_versions = st.integers(min_value=1, max_value=300)
_ua_keys = st.builds(ua_key, _vendors, _versions)

_small_matrix = arrays(
    dtype=np.float64,
    shape=st.tuples(
        st.integers(min_value=5, max_value=40), st.integers(min_value=2, max_value=6)
    ),
    elements=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
)


class TestUserAgentProperties:
    @given(_vendors, _versions)
    def test_format_parse_roundtrip(self, vendor, version):
        parsed = parse_user_agent(format_user_agent(vendor, version))
        assert parsed.vendor is vendor
        assert parsed.version == version

    @given(_vendors, _versions)
    def test_key_roundtrip(self, vendor, version):
        parsed = parse_ua_key(ua_key(vendor, version))
        assert (parsed.vendor, parsed.version) == (vendor, version)


class TestRiskProperties:
    @given(_ua_keys, _ua_keys)
    def test_distance_symmetric_and_bounded(self, a, b):
        d_ab = user_agent_distance(a, b)
        d_ba = user_agent_distance(b, a)
        assert d_ab == d_ba
        assert 0 <= d_ab <= 74  # floor(299/4) for same vendor, 20 cross

    @given(_ua_keys)
    def test_self_distance_zero(self, a):
        assert user_agent_distance(a, a) == 0

    @given(_ua_keys, st.lists(_ua_keys, min_size=1, max_size=8))
    def test_risk_factor_is_min_distance(self, session, cluster):
        expected = min(user_agent_distance(session, other) for other in cluster)
        assert risk_factor(session, cluster) == expected

    @given(_ua_keys, st.lists(_ua_keys, min_size=1, max_size=6), _ua_keys)
    def test_adding_a_member_never_raises_risk(self, session, cluster, extra):
        # Holds for non-empty clusters; the empty-cluster fallback is a
        # fixed cap, not a minimum.
        before = risk_factor(session, cluster)
        after = risk_factor(session, cluster + [extra])
        assert after <= before


class TestScalerProperties:
    @given(_small_matrix)
    @settings(max_examples=40)
    def test_inverse_roundtrip(self, matrix):
        scaler = StandardScaler()
        recovered = scaler.fit_transform(matrix) * scaler.scale_ + scaler.mean_
        assert np.allclose(recovered, matrix, atol=1e-6 * (1 + np.abs(matrix).max()))

    @given(_small_matrix)
    @settings(max_examples=40)
    def test_scaled_columns_bounded_moments(self, matrix):
        from hypothesis import assume

        data = np.asarray(matrix, dtype=float)
        original_stds = data.std(axis=0)
        scale = np.abs(data).max() + 1.0
        # Skip catastrophically ill-conditioned columns (spread below
        # float cancellation noise relative to the magnitude).
        assume(
            all(s == 0.0 or s > 1e-9 * scale for s in original_stds)
        )
        scaled = StandardScaler().fit_transform(data)
        for column in range(scaled.shape[1]):
            if original_stds[column] == 0.0:
                # Constant columns are centered to zero (scale forced 1).
                assert np.allclose(scaled[:, column], 0.0)
            else:
                assert abs(scaled[:, column].mean()) < 1e-6
                assert abs(scaled[:, column].std() - 1.0) < 1e-6


class TestPCAProperties:
    @given(_small_matrix)
    @settings(max_examples=30)
    def test_full_reconstruction(self, matrix):
        pca = PCA().fit(matrix)
        recovered = pca.transform(matrix) @ pca.components_ + pca.mean_
        assert np.allclose(recovered, matrix, atol=1e-5 * (1 + np.abs(matrix).max()))

    @given(_small_matrix)
    @settings(max_examples=30)
    def test_variance_ratios_valid(self, matrix):
        pca = PCA().fit(matrix)
        ratios = pca.explained_variance_ratio_
        assert np.all(ratios >= -1e-12)
        assert float(ratios.sum()) <= 1.0 + 1e-9


class TestKMeansProperties:
    @given(
        arrays(
            dtype=np.float64,
            shape=st.tuples(
                st.integers(min_value=6, max_value=30),
                st.integers(min_value=2, max_value=4),
            ),
            elements=st.floats(min_value=-100, max_value=100, allow_nan=False),
        ),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_inertia_nonnegative_and_labels_valid(self, matrix, k):
        model = KMeans(n_clusters=k, n_init=1, random_state=0).fit(matrix)
        assert model.inertia_ >= 0.0
        assert np.all(model.labels_ >= 0) and np.all(model.labels_ < k)


class TestMetricProperties:
    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=60))
    def test_entropy_bounds(self, values):
        entropy = shannon_entropy(values)
        assert 0.0 <= entropy <= np.log2(len(set(values))) + 1e-9
        assert 0.0 <= normalized_shannon_entropy(values) <= 1.0 + 1e-9

    @given(
        st.lists(
            st.tuples(st.sampled_from("abc"), st.integers(0, 3)),
            min_size=1,
            max_size=60,
        )
    )
    def test_majority_accuracy_bounds(self, pairs):
        labels = [p[0] for p in pairs]
        clusters = [p[1] for p in pairs]
        accuracy = majority_cluster_accuracy(labels, clusters)
        assert 0.0 < accuracy <= 1.0

    @given(st.lists(st.floats(min_value=1e-3, max_value=1e6), min_size=1, max_size=30))
    def test_relative_gain_bounded_for_decreasing_wcss(self, values):
        decreasing = sorted(values, reverse=True)
        gains = relative_wcss_gain(decreasing)
        assert all(0.0 <= g <= 1.0 for g in gains)
