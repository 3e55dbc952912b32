"""KMeans unit tests."""

import numpy as np
import pytest

from repro.ml.kmeans import KMeans


def _blobs(rng, centers, n_per=100, scale=0.1):
    parts = [
        center + rng.normal(0.0, scale, size=(n_per, len(center)))
        for center in centers
    ]
    return np.vstack(parts)


def test_recovers_well_separated_blobs(rng):
    centers = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)]
    data = _blobs(rng, centers)
    model = KMeans(n_clusters=3, random_state=0).fit(data)
    found = sorted(tuple(np.round(c).astype(int)) for c in model.cluster_centers_)
    assert found == [(0, 0), (0, 10), (10, 0)]


def test_labels_partition_all_points(rng):
    data = _blobs(rng, [(0.0, 0.0), (5.0, 5.0)])
    model = KMeans(n_clusters=2, random_state=0).fit(data)
    assert model.labels_.shape == (data.shape[0],)
    assert set(model.labels_) == {0, 1}


def test_inertia_decreases_with_more_clusters(rng):
    data = _blobs(rng, [(0, 0), (4, 0), (0, 4), (4, 4)], scale=0.5)
    inertias = [
        KMeans(n_clusters=k, n_init=3, random_state=1).fit(data).inertia_
        for k in (1, 2, 4, 8)
    ]
    assert all(a > b for a, b in zip(inertias, inertias[1:]))


def test_predict_assigns_nearest_centroid(rng):
    data = _blobs(rng, [(0.0, 0.0), (10.0, 10.0)])
    model = KMeans(n_clusters=2, random_state=0).fit(data)
    near_origin = model.predict(np.array([[0.2, -0.1]]))[0]
    near_far = model.predict(np.array([[9.8, 10.4]]))[0]
    assert near_origin != near_far
    assert near_origin == model.predict(np.array([0.0, 0.0]))[0]


def test_predict_on_training_data_matches_labels(rng):
    data = _blobs(rng, [(0, 0), (8, 8)])
    model = KMeans(n_clusters=2, random_state=0).fit(data)
    assert np.array_equal(model.predict(data), model.labels_)


def test_predict_labels_are_the_assignment_without_its_inertia(rng):
    from repro.ml.kmeans import _assign_rows

    data = _blobs(rng, [(0, 0), (6, 0), (3, 5)], scale=1.5)
    model = KMeans(n_clusters=3, random_state=0).fit(data)
    sq_norms = np.einsum("ij,ij->i", data, data)
    expected, _ = _assign_rows(data, sq_norms, model.cluster_centers_)
    labels = model.predict(data)
    assert labels.dtype == expected.dtype
    assert np.array_equal(labels, expected)


def test_deterministic_given_seed(rng):
    data = _blobs(rng, [(0, 0), (6, 0), (3, 5)])
    a = KMeans(n_clusters=3, random_state=42).fit(data)
    b = KMeans(n_clusters=3, random_state=42).fit(data)
    assert np.allclose(a.cluster_centers_, b.cluster_centers_)
    assert a.inertia_ == b.inertia_


def test_duplicate_heavy_data(rng):
    # Web traffic shape: a few distinct points with huge multiplicity.
    base = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 1.0]])
    data = np.repeat(base, 400, axis=0)
    model = KMeans(n_clusters=3, n_init=4, random_state=0).fit(data)
    assert model.inertia_ == pytest.approx(0.0, abs=1e-9)


def test_more_clusters_than_distinct_points_reseeds_empties(rng):
    base = np.array([[0.0, 0.0], [5.0, 5.0]])
    data = np.repeat(base, 50, axis=0)
    model = KMeans(n_clusters=4, n_init=2, random_state=0).fit(data)
    # All points still assigned, inertia zero (centroids sit on points).
    assert model.inertia_ == pytest.approx(0.0, abs=1e-9)
    assert model.labels_.shape == (100,)


def test_transform_returns_distances(rng):
    data = _blobs(rng, [(0.0, 0.0), (10.0, 0.0)])
    model = KMeans(n_clusters=2, random_state=0).fit(data)
    distances = model.transform(np.array([[0.0, 0.0]]))
    assert distances.shape == (1, 2)
    assert abs(distances.min() - 0.0) < 0.5
    assert abs(distances.max() - 10.0) < 0.5


def test_score_is_negative_wcss(rng):
    data = _blobs(rng, [(0, 0), (5, 5)])
    model = KMeans(n_clusters=2, random_state=0).fit(data)
    assert model.score(data) == pytest.approx(-model.inertia_, rel=1e-6)


def test_n_samples_below_k_rejected():
    with pytest.raises(ValueError, match="n_samples"):
        KMeans(n_clusters=5).fit(np.zeros((3, 2)))


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        KMeans(n_clusters=0)
    with pytest.raises(ValueError):
        KMeans(n_clusters=2, n_init=0)
    with pytest.raises(ValueError):
        KMeans(n_clusters=2, max_iter=0)


def test_predict_before_fit_rejected():
    with pytest.raises(RuntimeError, match="not fitted"):
        KMeans(n_clusters=2).predict(np.zeros((1, 2)))


def test_predict_wrong_width_rejected(rng):
    model = KMeans(n_clusters=2, random_state=0).fit(rng.normal(size=(20, 3)))
    with pytest.raises(ValueError, match="features"):
        model.predict(np.zeros((1, 5)))


def test_single_cluster(rng):
    data = rng.normal(size=(50, 2))
    model = KMeans(n_clusters=1, random_state=0).fit(data)
    assert np.allclose(model.cluster_centers_[0], data.mean(axis=0))
