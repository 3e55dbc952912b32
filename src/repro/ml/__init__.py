"""Machine-learning substrate for Browser Polygraph.

The paper's pipeline relies on a handful of standard algorithms
(StandardScaler, PCA, KMeans, Isolation Forest) plus clustering metrics.
This subpackage implements all of them from scratch on numpy so the
reproduction has no dependency on scikit-learn.

All estimators follow the familiar ``fit`` / ``transform`` / ``predict``
protocol and accept an explicit ``random_state`` so every experiment in
the repository is deterministic.
"""

from repro.ml.elbow import (
    ElbowResult,
    elbow_analysis,
    elbow_seed,
    relative_wcss_gain,
    select_k_elbow,
)
from repro.ml.isolation_forest import IsolationForest
from repro.ml.kmeans import KMeans
from repro.ml.parallel import parallel_map, resolve_jobs
from repro.ml.rows import row_groups
from repro.ml.metrics import (
    anonymity_set_sizes,
    anonymity_survey,
    majority_cluster_accuracy,
    majority_cluster_map,
    normalized_shannon_entropy,
    shannon_entropy,
    silhouette_samples_mean,
)
from repro.ml.pca import PCA
from repro.ml.scaler import StandardScaler

__all__ = [
    "ElbowResult",
    "IsolationForest",
    "KMeans",
    "PCA",
    "StandardScaler",
    "anonymity_set_sizes",
    "anonymity_survey",
    "elbow_analysis",
    "elbow_seed",
    "majority_cluster_accuracy",
    "majority_cluster_map",
    "normalized_shannon_entropy",
    "parallel_map",
    "relative_wcss_gain",
    "resolve_jobs",
    "row_groups",
    "select_k_elbow",
    "shannon_entropy",
    "silhouette_samples_mean",
]
