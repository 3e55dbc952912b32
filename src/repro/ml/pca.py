"""Principal Component Analysis via singular value decomposition.

Section 6.4.2 of the paper uses PCA to project the 28 coarse-grained
features onto 7 components that retain >98.5% of the variance
(paper Figure 2).  This implementation mirrors the conventional
scikit-learn semantics: data is centered (not re-scaled), components are
the right singular vectors, and ``explained_variance_ratio_`` reports the
fraction of total variance captured per component.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["PCA"]


class PCA:
    """Linear dimensionality reduction using SVD.

    Parameters
    ----------
    n_components:
        Number of principal components to keep.  ``None`` keeps
        ``min(n_samples, n_features)`` components.

    Attributes
    ----------
    components_:
        Array of shape ``(n_components, n_features)``; rows are principal
        axes sorted by explained variance.
    explained_variance_:
        Variance captured by each component.
    explained_variance_ratio_:
        ``explained_variance_`` normalized by the total variance.
    mean_:
        Per-feature empirical mean removed before projection.
    """

    def __init__(self, n_components: Optional[int] = None) -> None:
        if n_components is not None and n_components < 1:
            raise ValueError("n_components must be a positive integer")
        self.n_components = n_components
        self.components_: Optional[np.ndarray] = None
        self.explained_variance_: Optional[np.ndarray] = None
        self.explained_variance_ratio_: Optional[np.ndarray] = None
        self.singular_values_: Optional[np.ndarray] = None
        self.mean_: Optional[np.ndarray] = None
        self.n_features_in_: Optional[int] = None

    def fit(self, matrix: np.ndarray) -> "PCA":
        """Learn the principal axes of ``matrix``."""
        data = np.asarray(matrix, dtype=float)
        if data.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {data.shape}")
        n_samples, n_features = data.shape
        if n_samples < 2:
            raise ValueError("PCA requires at least two samples")
        max_components = min(n_samples, n_features)
        n_components = self.n_components or max_components
        if n_components > max_components:
            raise ValueError(
                f"n_components={n_components} exceeds min(n_samples, n_features)"
                f"={max_components}"
            )

        self.mean_ = data.mean(axis=0)
        centered = data - self.mean_
        # Full SVD of the centered data: centered = U @ diag(S) @ Vt.
        _, singular_values, vt = np.linalg.svd(centered, full_matrices=False)
        explained_variance = (singular_values**2) / (n_samples - 1)
        total_variance = explained_variance.sum()
        if total_variance <= 0.0:
            ratio = np.zeros_like(explained_variance)
        else:
            ratio = explained_variance / total_variance

        # Deterministic sign convention: make the largest-magnitude entry
        # of each component positive so repeated fits agree exactly.
        signs = np.sign(vt[np.arange(vt.shape[0]), np.abs(vt).argmax(axis=1)])
        signs[signs == 0] = 1.0
        vt = vt * signs[:, None]

        self.components_ = vt[:n_components]
        self.explained_variance_ = explained_variance[:n_components]
        self.explained_variance_ratio_ = ratio[:n_components]
        self.singular_values_ = singular_values[:n_components]
        self.n_features_in_ = n_features
        return self

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        """Project ``matrix`` onto the learned principal axes."""
        self._check_fitted()
        data = np.asarray(matrix, dtype=float)
        if data.ndim != 2 or data.shape[1] != self.n_features_in_:
            raise ValueError(
                f"expected shape (n, {self.n_features_in_}), got {data.shape}"
            )
        return (data - self.mean_) @ self.components_.T

    def fit_transform(self, matrix: np.ndarray) -> np.ndarray:
        """Equivalent to ``fit(matrix).transform(matrix)``."""
        return self.fit(matrix).transform(matrix)

    def cumulative_variance_ratio(self) -> np.ndarray:
        """Cumulative explained-variance curve (paper Figure 2)."""
        self._check_fitted()
        return np.cumsum(self.explained_variance_ratio_)

    def _check_fitted(self) -> None:
        if self.components_ is None:
            raise RuntimeError("PCA is not fitted; call fit() first")
