"""StandardScaler unit tests."""

import numpy as np
import pytest

from repro.ml.scaler import StandardScaler


def test_fit_transform_zero_mean_unit_variance(rng):
    data = rng.normal(5.0, 3.0, size=(500, 4))
    scaled = StandardScaler().fit_transform(data)
    assert np.allclose(scaled.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(scaled.std(axis=0), 1.0, atol=1e-9)


def test_transform_uses_training_moments(rng):
    train = rng.normal(0.0, 1.0, size=(200, 3))
    test = rng.normal(10.0, 1.0, size=(50, 3))
    scaler = StandardScaler().fit(train)
    scaled_test = scaler.transform(test)
    # Shifted data must not be re-centered to zero.
    assert scaled_test.mean() > 5.0


def test_constant_column_maps_to_zero():
    data = np.column_stack([np.full(100, 7.0), np.arange(100, dtype=float)])
    scaled = StandardScaler().fit_transform(data)
    assert np.allclose(scaled[:, 0], 0.0)
    assert not np.allclose(scaled[:, 1], 0.0)


def test_column_mask_leaves_other_columns_untouched(rng):
    data = rng.normal(50.0, 10.0, size=(300, 3))
    scaler = StandardScaler(columns=[0, 2])
    scaled = scaler.fit_transform(data)
    assert np.allclose(scaled[:, 1], data[:, 1])
    assert abs(scaled[:, 0].mean()) < 1e-9
    assert abs(scaled[:, 2].mean()) < 1e-9


def test_inverse_transform_roundtrip(rng):
    data = rng.normal(3.0, 2.0, size=(100, 5))
    scaler = StandardScaler()
    recovered = scaler.fit_transform(data) * scaler.scale_ + scaler.mean_
    assert np.allclose(recovered, data)


def test_inverse_transform_with_mask_roundtrip(rng):
    data = rng.normal(3.0, 2.0, size=(100, 4))
    scaler = StandardScaler(columns=[1, 3])
    recovered = scaler.fit_transform(data) * scaler.scale_ + scaler.mean_
    assert np.allclose(recovered, data)


def test_out_of_range_column_rejected():
    with pytest.raises(ValueError, match="out of range"):
        StandardScaler(columns=[5]).fit(np.zeros((10, 3)))


def test_transform_before_fit_rejected():
    with pytest.raises(RuntimeError, match="not fitted"):
        StandardScaler().transform(np.zeros((2, 2)))


def test_wrong_width_rejected(rng):
    scaler = StandardScaler().fit(rng.normal(size=(10, 3)))
    with pytest.raises(ValueError, match="expected 3 features"):
        scaler.transform(rng.normal(size=(5, 4)))


def test_empty_matrix_rejected():
    with pytest.raises(ValueError, match="empty"):
        StandardScaler().fit(np.zeros((0, 3)))


def test_one_dimensional_input_rejected():
    with pytest.raises(ValueError, match="2-D"):
        StandardScaler().fit(np.zeros(5))


def test_integer_input_produces_float_output():
    data = np.arange(20, dtype=np.int32).reshape(10, 2)
    scaled = StandardScaler().fit_transform(data)
    assert scaled.dtype == float
