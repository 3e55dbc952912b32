"""Standard (z-score) feature scaling.

Section 6.4.1 of the paper scales the *deviation-based* attributes with a
StandardScaler because prototype property counts span very different
ranges (a handful of properties on ``StaticRange`` versus hundreds on
``Element``).  Time-based attributes are already binary and may be left
untouched; :class:`StandardScaler` therefore supports an optional column
mask selecting which features to scale.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = ["StandardScaler"]


class StandardScaler:
    """Scale features to zero mean and unit variance.

    Parameters
    ----------
    columns:
        Optional sequence of column indices to scale.  Columns outside the
        mask pass through unchanged.  ``None`` (default) scales every
        column.

    Attributes
    ----------
    mean_:
        Per-column means learned by :meth:`fit` (zeros for unscaled
        columns).
    scale_:
        Per-column standard deviations (ones for unscaled columns and for
        constant columns, so transforming never divides by zero).
    """

    def __init__(self, columns: Optional[Sequence[int]] = None) -> None:
        self.columns = None if columns is None else sorted(int(c) for c in columns)
        self.mean_: Optional[np.ndarray] = None
        self.scale_: Optional[np.ndarray] = None
        self.n_features_in_: Optional[int] = None

    def fit(self, matrix: np.ndarray) -> "StandardScaler":
        """Learn per-column mean and standard deviation from ``matrix``."""
        data = _as_2d_float(matrix)
        n_features = data.shape[1]
        if self.columns is not None:
            bad = [c for c in self.columns if c < 0 or c >= n_features]
            if bad:
                raise ValueError(f"scaling columns out of range: {bad}")
        mean = np.zeros(n_features)
        scale = np.ones(n_features)
        selected = slice(None) if self.columns is None else self.columns
        mean[selected] = data[:, selected].mean(axis=0)
        std = data[:, selected].std(axis=0)
        std = np.where(std > 0.0, std, 1.0)
        scale[selected] = std
        self.mean_ = mean
        self.scale_ = scale
        self.n_features_in_ = n_features
        return self

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        """Apply the learned scaling; returns a new float array."""
        self._check_fitted()
        data = _as_2d_float(matrix)
        if data.shape[1] != self.n_features_in_:
            raise ValueError(
                f"expected {self.n_features_in_} features, got {data.shape[1]}"
            )
        return (data - self.mean_) / self.scale_

    def fit_transform(self, matrix: np.ndarray) -> np.ndarray:
        """Equivalent to ``fit(matrix).transform(matrix)``."""
        return self.fit(matrix).transform(matrix)

    def _check_fitted(self) -> None:
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("StandardScaler is not fitted; call fit() first")


def _as_2d_float(matrix: np.ndarray) -> np.ndarray:
    data = np.asarray(matrix, dtype=float)
    if data.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {data.shape}")
    if data.shape[0] == 0:
        raise ValueError("cannot operate on an empty matrix")
    return data
