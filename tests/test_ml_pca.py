"""PCA unit tests."""

import numpy as np
import pytest

from repro.ml.pca import PCA


def _correlated_data(rng, n=400):
    latent = rng.normal(size=(n, 2))
    mixing = np.array([[1.0, 0.5, 0.2, 0.0], [0.0, 0.3, 1.0, 0.7]])
    return latent @ mixing + rng.normal(0.0, 0.01, size=(n, 4))


def test_components_are_orthonormal(rng):
    pca = PCA().fit(_correlated_data(rng))
    gram = pca.components_ @ pca.components_.T
    assert np.allclose(gram, np.eye(gram.shape[0]), atol=1e-8)


def test_explained_variance_ratio_sums_to_one(rng):
    pca = PCA().fit(_correlated_data(rng))
    assert pytest.approx(1.0, abs=1e-9) == float(
        np.sum(pca.explained_variance_ratio_)
    )


def test_explained_variance_is_sorted_descending(rng):
    pca = PCA().fit(_correlated_data(rng))
    ev = pca.explained_variance_
    assert all(a >= b for a, b in zip(ev, ev[1:]))


def test_two_components_capture_planar_data(rng):
    pca = PCA(n_components=2).fit(_correlated_data(rng))
    assert float(np.sum(pca.explained_variance_ratio_)) > 0.99


def test_transform_then_inverse_reconstructs_planar_data(rng):
    data = _correlated_data(rng)
    pca = PCA(n_components=2).fit(data)
    # The projection is orthogonal: the fitted axes map it back.
    reconstructed = pca.transform(data) @ pca.components_ + pca.mean_
    assert np.allclose(reconstructed, data, atol=0.1)


def test_projection_matches_manual_computation(rng):
    data = _correlated_data(rng)
    pca = PCA(n_components=3).fit(data)
    manual = (data - data.mean(axis=0)) @ pca.components_.T
    assert np.allclose(pca.transform(data), manual)


def test_deterministic_across_fits(rng):
    data = _correlated_data(rng)
    first = PCA(n_components=2).fit(data)
    second = PCA(n_components=2).fit(data.copy())
    assert np.allclose(first.components_, second.components_)


def test_cumulative_variance_ratio_monotone(rng):
    pca = PCA().fit(_correlated_data(rng))
    cumulative = pca.cumulative_variance_ratio()
    assert np.all(np.diff(cumulative) >= -1e-12)


def test_components_for_variance_planar(rng):
    cumulative = PCA().fit(_correlated_data(rng)).cumulative_variance_ratio()
    assert cumulative[0] < 0.99 <= cumulative[1]


def test_components_for_variance_full():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(100, 3))
    cumulative = PCA().fit(data).cumulative_variance_ratio()
    assert cumulative[1] < 1.0 - 1e-9 and cumulative[2] == pytest.approx(1.0)


def test_too_many_components_rejected(rng):
    with pytest.raises(ValueError, match="exceeds"):
        PCA(n_components=10).fit(rng.normal(size=(50, 4)))


def test_single_sample_rejected():
    with pytest.raises(ValueError, match="two samples"):
        PCA().fit(np.zeros((1, 4)))


def test_transform_before_fit_rejected():
    with pytest.raises(RuntimeError, match="not fitted"):
        PCA().transform(np.zeros((2, 2)))


def test_transform_wrong_width_rejected(rng):
    pca = PCA(n_components=2).fit(_correlated_data(rng))
    with pytest.raises(ValueError):
        pca.transform(np.zeros((3, 7)))


def test_constant_data_zero_ratio():
    data = np.ones((50, 3))
    pca = PCA().fit(data)
    assert np.allclose(pca.explained_variance_ratio_, 0.0)
