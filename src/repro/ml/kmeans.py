"""KMeans clustering (k-means++ initialization, Lloyd iterations).

Section 6.4.3 of the paper clusters the PCA-projected coarse-grained
fingerprints with k-means, picking k=11 via the elbow method.  This
implementation is built for the duplicate-heavy matrices that path sees
(the paper's 205k sessions collapse to 1,313 distinct fingerprints):

* rows are grouped once and Lloyd/k-means++ run *weighted* over the
  distinct rows, so the per-iteration cost scales with the number of
  distinct fingerprints rather than the number of sessions;
* the ``n_init`` restarts are independent tasks with per-restart seeds
  derived from a :class:`numpy.random.SeedSequence`, so they can run on
  a process pool (``jobs``) with results bit-identical to a serial run;
* empty clusters are re-seeded from the points farthest from their
  centroids.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.ml.parallel import parallel_map
from repro.ml.rows import row_groups

__all__ = ["KMeans"]

Seedable = Union[int, np.random.SeedSequence, None]

# Restarts are farmed out to the pool only when a single restart has at
# least this much work (distinct rows x clusters); below it the fork
# and pickling overhead dwarfs the arithmetic.  The gate only chooses
# *where* a restart runs, never what it computes, so model outputs are
# identical either way.  Tests pin it to 0 to force pool execution.
_MIN_PARALLEL_WORK = 1 << 14


def _seed_root(random_state: Seedable) -> np.random.SeedSequence:
    """The root :class:`SeedSequence` all restart seeds spawn from."""
    if isinstance(random_state, np.random.SeedSequence):
        return random_state
    if random_state is None:
        return np.random.SeedSequence()
    return np.random.SeedSequence(int(random_state))


class KMeans:
    """Lloyd's k-means with k-means++ seeding.

    Parameters
    ----------
    n_clusters:
        Number of clusters (the paper's k; 11 for the deployed model).
    n_init:
        Independent restarts; the run with the lowest inertia wins
        (ties resolved by restart order, so results are independent of
        ``jobs``).
    max_iter:
        Maximum Lloyd iterations per restart.
    tol:
        Convergence threshold on the squared centroid movement.
    random_state:
        Seed for reproducible initialization.  Accepts an ``int`` or a
        pre-built :class:`numpy.random.SeedSequence` (the elbow sweep
        passes per-k sequences so every (k, restart) pair has its own
        deterministic stream).
    jobs:
        Worker processes for the restarts; 1 runs inline.  Any value
        produces bit-identical models.

    Attributes
    ----------
    cluster_centers_:
        ``(n_clusters, n_features)`` centroid matrix.
    labels_:
        Training-set assignments.
    inertia_:
        Within-cluster sum of squares (WCSS) of the best run — the
        quantity plotted in paper Figures 3 and 4.
    n_iter_:
        Lloyd iterations used by the best run.
    """

    def __init__(
        self,
        n_clusters: int,
        n_init: int = 4,
        max_iter: int = 300,
        tol: float = 1e-6,
        random_state: Seedable = None,
        jobs: int = 1,
    ) -> None:
        if n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if n_init < 1:
            raise ValueError("n_init must be >= 1")
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        self.n_clusters = int(n_clusters)
        self.n_init = int(n_init)
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.random_state = random_state
        self.jobs = jobs
        self.cluster_centers_: Optional[np.ndarray] = None
        self.labels_: Optional[np.ndarray] = None
        self.inertia_: Optional[float] = None
        self.n_iter_: Optional[int] = None

    def fit(self, matrix: np.ndarray) -> "KMeans":
        """Cluster ``matrix``; keeps the best of ``n_init`` restarts."""
        data = np.ascontiguousarray(matrix, dtype=float)
        if data.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {data.shape}")
        n_samples = data.shape[0]
        if n_samples < self.n_clusters:
            raise ValueError(
                f"n_samples={n_samples} < n_clusters={self.n_clusters}"
            )
        points, sq_norms, weights, inverse = prepare_points(data)
        seeds = _seed_root(self.random_state).spawn(self.n_init)
        tasks = [
            (self.n_clusters, self.max_iter, self.tol, seed) for seed in seeds
        ]
        results = run_restarts(points, sq_norms, weights, tasks, self.jobs)
        centers, inertia, n_iter = pick_best(results)

        group_labels, inertia = _assign_weighted(
            points, sq_norms, weights, centers
        )
        self.cluster_centers_ = centers
        self.labels_ = group_labels[inverse]
        self.inertia_ = inertia
        self.n_iter_ = n_iter
        return self

    def fit_predict(self, matrix: np.ndarray) -> np.ndarray:
        """Fit and return the training-set labels."""
        return self.fit(matrix).labels_

    def predict(self, matrix: np.ndarray) -> np.ndarray:
        """Assign each row of ``matrix`` to its nearest centroid."""
        self._check_fitted()
        data = np.asarray(matrix, dtype=float)
        if data.ndim == 1:
            data = data[None, :]
        if data.shape[1] != self.cluster_centers_.shape[1]:
            raise ValueError(
                f"expected {self.cluster_centers_.shape[1]} features, "
                f"got {data.shape[1]}"
            )
        sq_norms = np.einsum("ij,ij->i", data, data)
        return _pairwise_sq_distances(
            data, sq_norms, self.cluster_centers_
        ).argmin(axis=1)

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        """Distances from each row to every centroid."""
        self._check_fitted()
        data = np.asarray(matrix, dtype=float)
        if data.ndim == 1:
            data = data[None, :]
        distances_sq = _pairwise_sq_distances(
            data, np.einsum("ij,ij->i", data, data), self.cluster_centers_
        )
        return np.sqrt(np.maximum(distances_sq, 0.0))

    def score(self, matrix: np.ndarray) -> float:
        """Negative WCSS of ``matrix`` under the fitted centroids."""
        self._check_fitted()
        data = np.asarray(matrix, dtype=float)
        sq_norms = np.einsum("ij,ij->i", data, data)
        _, inertia = _assign_rows(data, sq_norms, self.cluster_centers_)
        return -inertia

    def _check_fitted(self) -> None:
        if self.cluster_centers_ is None:
            raise RuntimeError("KMeans is not fitted; call fit() first")


# ----------------------------------------------------------------------
# shared training internals (also driven directly by the elbow sweep)


def prepare_points(data: np.ndarray) -> tuple:
    """Collapse ``data`` to weighted distinct rows.

    Returns ``(points, sq_norms, weights, inverse)``; the restart
    payload shared by every (k, restart) task of a sweep — computed
    once in the parent so every worker sees identical inputs.
    """
    first, inverse, counts = row_groups(data)
    points = np.ascontiguousarray(data[first])
    sq_norms = np.einsum("ij,ij->i", points, points)
    return points, sq_norms, counts.astype(float), inverse


def run_restarts(
    points: np.ndarray,
    sq_norms: np.ndarray,
    weights: np.ndarray,
    tasks: List[tuple],
    jobs: int,
) -> List[tuple]:
    """Run ``(n_clusters, max_iter, tol, seed)`` restart tasks.

    Results are ``(centers, inertia, n_iter)`` in task order.  Workers
    never ship labels back — the winner's labels are recomputed by the
    caller with one assignment pass, which is bit-identical and keeps
    the per-task transfer to a ``(k, d)`` centroid block.
    """
    work = points.shape[0] * max((task[0] for task in tasks), default=1)
    effective_jobs = jobs if work >= _MIN_PARALLEL_WORK else 1
    return parallel_map(
        _restart_task,
        tasks,
        jobs=effective_jobs,
        payload=(points, sq_norms, weights),
    )


def pick_best(results: List[tuple]) -> tuple:
    """Lowest-inertia result; ties broken by task order."""
    best = None
    best_inertia = np.inf
    for result in results:
        if result[1] < best_inertia:
            best_inertia = result[1]
            best = result
    assert best is not None
    return best


def _restart_task(payload: tuple, task: tuple) -> tuple:
    """One independent k-means restart (pool worker entry point)."""
    points, sq_norms, weights = payload
    n_clusters, max_iter, tol, seed = task
    rng = np.random.default_rng(seed)
    centers = _kmeanspp_init(points, sq_norms, weights, n_clusters, rng)
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        labels, _ = _assign_weighted(points, sq_norms, weights, centers)
        new_centers = _recompute_centers(points, weights, labels, n_clusters)
        empty = np.nonzero(np.isnan(new_centers[:, 0]))[0]
        if empty.size:
            new_centers = _reseed_empty(points, sq_norms, new_centers, empty)
        shift = float(((new_centers - centers) ** 2).sum())
        centers = new_centers
        if shift <= tol:
            break
    _, inertia = _assign_weighted(points, sq_norms, weights, centers)
    return centers, inertia, n_iter


def _kmeanspp_init(
    points: np.ndarray,
    sq_norms: np.ndarray,
    weights: np.ndarray,
    n_clusters: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Weighted k-means++ over distinct rows.

    Sampling a distinct row with probability proportional to its
    multiplicity (times squared distance) is exactly the classic
    row-level k-means++ distribution, at the cost of the distinct rows
    only.
    """
    n_points = points.shape[0]
    uniform = weights / weights.sum()
    centers = np.empty((n_clusters, points.shape[1]))
    first = int(rng.choice(n_points, p=uniform))
    centers[0] = points[first]
    closest_sq = _sq_distance_to_center(points, sq_norms, centers[0])
    for idx in range(1, n_clusters):
        mass = weights * np.maximum(closest_sq, 0.0)
        total = mass.sum()
        if total <= 0.0:
            # All remaining points coincide with existing centers.
            pick = int(rng.choice(n_points, p=uniform))
        else:
            pick = int(rng.choice(n_points, p=mass / total))
        centers[idx] = points[pick]
        new_sq = _sq_distance_to_center(points, sq_norms, centers[idx])
        np.minimum(closest_sq, new_sq, out=closest_sq)
    return centers


def _assign_weighted(
    points: np.ndarray,
    sq_norms: np.ndarray,
    weights: np.ndarray,
    centers: np.ndarray,
) -> Tuple[np.ndarray, float]:
    """Nearest-centroid labels and multiplicity-weighted inertia."""
    distances_sq = _pairwise_sq_distances(points, sq_norms, centers)
    labels = distances_sq.argmin(axis=1)
    nearest = np.maximum(
        distances_sq[np.arange(points.shape[0]), labels], 0.0
    )
    return labels, float((weights * nearest).sum())


def _assign_rows(
    data: np.ndarray, sq_norms: np.ndarray, centers: np.ndarray
) -> Tuple[np.ndarray, float]:
    """Plain per-row assignment and inertia (the scoring path)."""
    distances_sq = _pairwise_sq_distances(data, sq_norms, centers)
    labels = distances_sq.argmin(axis=1)
    inertia = float(
        np.maximum(distances_sq[np.arange(data.shape[0]), labels], 0.0).sum()
    )
    return labels, inertia


def _reseed_empty(
    points: np.ndarray,
    sq_norms: np.ndarray,
    centers: np.ndarray,
    empty: np.ndarray,
) -> np.ndarray:
    # Move each empty centroid onto the point currently farthest from
    # its assigned centroid; this is the standard scikit-learn remedy.
    filled = centers.copy()
    occupied = np.nonzero(~np.isnan(centers[:, 0]))[0]
    distances_sq = _pairwise_sq_distances(points, sq_norms, centers[occupied])
    nearest_sq = distances_sq.min(axis=1)
    order = np.argsort(nearest_sq)[::-1]
    for rank, cluster in enumerate(empty):
        filled[cluster] = points[order[rank % points.shape[0]]]
    return filled


def _pairwise_sq_distances(
    data: np.ndarray, sq_norms: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    center_sq = np.einsum("ij,ij->i", centers, centers)
    cross = data @ centers.T
    return sq_norms[:, None] - 2.0 * cross + center_sq[None, :]


def _sq_distance_to_center(
    data: np.ndarray, sq_norms: np.ndarray, center: np.ndarray
) -> np.ndarray:
    return np.maximum(
        sq_norms - 2.0 * (data @ center) + float(center @ center), 0.0
    )


def _recompute_centers(
    points: np.ndarray,
    weights: np.ndarray,
    labels: np.ndarray,
    n_clusters: int,
) -> np.ndarray:
    mass = np.bincount(labels, weights=weights, minlength=n_clusters)
    sums = np.zeros((n_clusters, points.shape[1]))
    np.add.at(sums, labels, points * weights[:, None])
    with np.errstate(invalid="ignore", divide="ignore"):
        centers = sums / mass[:, None]
    return centers
