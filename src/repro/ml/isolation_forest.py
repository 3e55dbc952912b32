"""Isolation Forest anomaly detection (Liu, Ting & Zhou, 2008).

Section 6.4.1 of the paper removes outliers from the 205k-row FinOrg
training matrix with an Isolation Forest at a 0.002% contamination-style
threshold (172 rows dropped).  This implementation follows the original
algorithm: each tree is built on a small random subsample with uniformly
random split features/values, anomaly scores derive from average path
lengths, and scoring is vectorized so the full training matrix scores in
well under a second.

Trees are stored as flat arrays (feature, threshold, children, leaf size)
rather than Python node objects, which keeps construction cheap and lets
:meth:`IsolationForest.score_samples` walk all points through a tree one
depth level at a time with numpy indexing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.ml.rows import row_groups

__all__ = ["IsolationForest"]

_EULER_GAMMA = 0.5772156649015329

# Deduplicated scoring only pays for itself on large batches where the
# grouping pass is cheaper than the avoided tree walks.
_DEDUP_MIN_ROWS = 2048


def average_path_length(n: np.ndarray) -> np.ndarray:
    """Expected path length ``c(n)`` of an unsuccessful BST search.

    Used both to normalize scores and to account for unsplit leaves.
    """
    n = np.asarray(n, dtype=float)
    result = np.zeros_like(n)
    big = n > 2.0
    result[big] = 2.0 * (np.log(n[big] - 1.0) + _EULER_GAMMA) - 2.0 * (
        n[big] - 1.0
    ) / n[big]
    result[n == 2.0] = 1.0
    return result


@dataclass
class _IsolationTree:
    """One isolation tree in structure-of-arrays form."""

    feature: np.ndarray  # split feature per node; -1 marks a leaf
    threshold: np.ndarray  # split value per node
    left: np.ndarray  # left child index
    right: np.ndarray  # right child index
    depth: np.ndarray  # node depth (root = 0)
    leaf_size: np.ndarray  # number of training samples in a leaf

    def path_lengths(self, data: np.ndarray) -> np.ndarray:
        """Path length of every row of ``data`` through this tree."""
        node = np.zeros(data.shape[0], dtype=np.int64)
        active = self.feature[node] >= 0
        while np.any(active):
            idx = np.nonzero(active)[0]
            current = node[idx]
            go_left = (
                data[idx, self.feature[current]] < self.threshold[current]
            )
            node[idx] = np.where(
                go_left, self.left[current], self.right[current]
            )
            active[idx] = self.feature[node[idx]] >= 0
        return self.depth[node] + average_path_length(self.leaf_size[node])


class IsolationForest:
    """Ensemble of isolation trees producing per-sample anomaly scores.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_samples:
        Subsample size per tree (clamped to the dataset size).
    contamination:
        Fraction of the training data treated as outliers; the paper uses
        0.002% = 2e-5.  Determines ``threshold_`` after :meth:`fit`.
    random_state:
        Seed for reproducibility.

    Scores follow the original paper's convention: values near 1 indicate
    anomalies, values well below 0.5 indicate normal points.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_samples: int = 256,
        contamination: float = 2e-5,
        random_state: Optional[int] = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if max_samples < 2:
            raise ValueError("max_samples must be >= 2")
        if not 0.0 < contamination < 0.5:
            raise ValueError("contamination must lie in (0, 0.5)")
        self.n_estimators = int(n_estimators)
        self.max_samples = int(max_samples)
        self.contamination = float(contamination)
        self.random_state = random_state
        self.trees_: List[_IsolationTree] = []
        self.subsample_size_: Optional[int] = None
        self.threshold_: Optional[float] = None
        self.fit_inlier_mask_: Optional[np.ndarray] = None
        self.fit_outlier_indices_: Optional[np.ndarray] = None
        self.fit_scores_: Optional[np.ndarray] = None

    def fit(self, matrix: np.ndarray) -> "IsolationForest":
        """Build the forest on ``matrix`` and calibrate ``threshold_``."""
        data = np.asarray(matrix, dtype=float)
        if data.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {data.shape}")
        n_samples = data.shape[0]
        if n_samples < 2:
            raise ValueError("IsolationForest requires at least two samples")
        rng = np.random.default_rng(self.random_state)
        subsample = min(self.max_samples, n_samples)
        height_limit = int(np.ceil(np.log2(subsample)))

        self.subsample_size_ = subsample
        self.trees_ = []
        for _ in range(self.n_estimators):
            picks = rng.choice(n_samples, size=subsample, replace=False)
            self.trees_.append(
                _build_tree(data[picks], height_limit, rng)
            )

        scores = self.score_samples(data)
        self.fit_scores_ = scores
        # The top `contamination` fraction of scores are outliers.  With
        # the paper's 2e-5 threshold on 205k rows this keeps the handful
        # of most isolated fingerprints.  Ties are resolved by capping
        # the training outlier set at exactly n_outliers rows — web
        # traffic is full of duplicate fingerprints, and letting a tied
        # score sweep a whole duplicate group out would discard
        # legitimate (if rare) browser populations.
        n_outliers = max(1, int(round(self.contamination * n_samples)))
        order = np.argsort(scores)
        outlier_rows = order[-n_outliers:]
        self.threshold_ = float(scores[outlier_rows[0]])
        self.fit_outlier_indices_ = np.sort(outlier_rows)
        mask = np.ones(n_samples, dtype=bool)
        mask[outlier_rows] = False
        self.fit_inlier_mask_ = mask
        return self

    def score_samples(self, matrix: np.ndarray) -> np.ndarray:
        """Anomaly score in (0, 1) for every row (higher = more anomalous).

        A row's score is a pure function of its values, so duplicate
        rows — the overwhelming majority in coarse-grained fingerprint
        matrices — are scored once and broadcast back.  The output is
        bit-identical to scoring every row individually.
        """
        self._check_fitted()
        data = np.asarray(matrix, dtype=float)
        if data.ndim == 1:
            data = data[None, :]
        n_rows = data.shape[0]
        if n_rows >= _DEDUP_MIN_ROWS:
            first, inverse, _ = row_groups(data)
            if first.size * 2 <= n_rows:
                return self._score_rows(data[first])[inverse]
        return self._score_rows(data)

    def _score_rows(self, data: np.ndarray) -> np.ndarray:
        lengths = np.zeros(data.shape[0])
        for tree in self.trees_:
            lengths += tree.path_lengths(data)
        mean_length = lengths / len(self.trees_)
        normalizer = float(average_path_length(np.array([self.subsample_size_]))[0])
        if normalizer <= 0.0:
            normalizer = 1.0
        return np.power(2.0, -mean_length / normalizer)

    def predict(self, matrix: np.ndarray) -> np.ndarray:
        """Return +1 for inliers and -1 for outliers."""
        self._check_fitted()
        if self.threshold_ is None:
            raise RuntimeError("threshold_ missing; fit() must calibrate it")
        scores = self.score_samples(matrix)
        return np.where(scores >= self.threshold_, -1, 1)

    def _check_fitted(self) -> None:
        if not self.trees_:
            raise RuntimeError("IsolationForest is not fitted; call fit() first")


def _build_tree(
    sample: np.ndarray, height_limit: int, rng: np.random.Generator
) -> _IsolationTree:
    """Grow one isolation tree over ``sample`` up to ``height_limit``."""
    feature: List[int] = []
    threshold: List[float] = []
    left: List[int] = []
    right: List[int] = []
    depth: List[int] = []
    leaf_size: List[int] = []

    # Stack of (row-index-array, depth, slot-in-parent or None-for-root).
    stack = [(np.arange(sample.shape[0]), 0, -1, False)]
    while stack:
        rows, level, parent, is_right = stack.pop()
        node_id = len(feature)
        if parent >= 0:
            if is_right:
                right[parent] = node_id
            else:
                left[parent] = node_id

        split = _choose_split(sample, rows, rng) if (
            level < height_limit and rows.size > 1
        ) else None
        if split is None:
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            depth.append(level)
            leaf_size.append(int(rows.size))
            continue

        split_feature, split_value, go_left = split
        feature.append(split_feature)
        threshold.append(split_value)
        left.append(-1)
        right.append(-1)
        depth.append(level)
        leaf_size.append(0)
        stack.append((rows[~go_left], level + 1, node_id, True))
        stack.append((rows[go_left], level + 1, node_id, False))

    return _IsolationTree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        depth=np.asarray(depth, dtype=float),
        leaf_size=np.asarray(leaf_size, dtype=float),
    )


def _choose_split(
    sample: np.ndarray, rows: np.ndarray, rng: np.random.Generator
) -> Optional[tuple]:
    """Pick a uniformly random (feature, value) split that separates rows.

    Returns ``None`` when every candidate feature is constant on ``rows``
    (the node becomes a leaf).
    """
    candidates = rng.permutation(sample.shape[1])
    for split_feature in candidates:
        values = sample[rows, split_feature]
        low = values.min()
        high = values.max()
        if high <= low:
            continue
        split_value = float(rng.uniform(low, high))
        go_left = values < split_value
        if go_left.any() and not go_left.all():
            return int(split_feature), split_value, go_left
    return None
