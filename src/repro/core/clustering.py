"""Clustering model and the cluster-to-user-agent table (Section 6.4).

:class:`ClusterModel` owns the trained chain
``StandardScaler -> IsolationForest -> PCA -> KMeans`` plus the
artifact fraud detection actually consumes: the table mapping each
cluster to the user-agents whose sessions it holds (paper Table 3).

Two paper-specific refinements:

* **Majority mapping** — a user-agent's cluster is the one holding the
  majority of its sessions (Appendix-4 Formula 1); the training
  accuracy is the share of sessions landing in their user-agent's
  majority cluster (99.6% in the deployment).
* **Rare-UA alignment** — user-agents with fewer than ``min_ua_support``
  sessions (<100 in the paper) can be assigned misleading clusters by
  the data alone, so their table entry is overridden by the cluster of
  their *reference fingerprint* from the candidate-generation lab runs
  (Section 6.4.3's adjustment for Chrome 81 / Edge 17).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.browsers.profiles import BrowserProfile
from repro.browsers.useragent import UserAgentError, parse_ua_key
from repro.core.config import PipelineConfig
from repro.core.preprocessing import Preprocessor
from repro.fingerprint.collector import FingerprintCollector
from repro.fingerprint.features import FEATURE_SPECS, FeatureSpec
from repro.jsengine.evolution import EvolutionModel, default_model
from repro.ml.kmeans import KMeans
from repro.ml.metrics import majority_cluster_accuracy, majority_cluster_map
from repro.ml.pca import PCA

__all__ = ["ClusterModel"]


class ClusterModel:
    """Trained clustering of coarse-grained fingerprints.

    Attributes (after :meth:`fit`)
    ------------------------------
    ua_to_cluster:
        ``{ua_key: cluster}`` — each user-agent's majority (or aligned)
        cluster.
    cluster_table:
        ``{cluster: [ua_key, ...]}`` — the paper's Table 3, including
        empty clusters that hold no majority user-agent.
    accuracy_:
        Majority-cluster training accuracy (Formula 1).
    n_outliers_:
        Rows removed by the Isolation Forest before training.
    aligned_uas_:
        User-agents whose table entry came from reference alignment.
    """

    def __init__(
        self,
        config: PipelineConfig = PipelineConfig(),
        specs: Sequence[FeatureSpec] = FEATURE_SPECS,
        model: Optional[EvolutionModel] = None,
    ) -> None:
        self.config = config
        self.specs = tuple(specs)
        self.evolution = model if model is not None else default_model()
        self.preprocessor = Preprocessor(config)
        self.pca: Optional[PCA] = None
        self.kmeans: Optional[KMeans] = None
        self.ua_to_cluster: Dict[str, int] = {}
        self.cluster_table: Dict[int, List[str]] = {}
        self.accuracy_: Optional[float] = None
        self.n_outliers_: Optional[int] = None
        self.inlier_mask_: Optional[np.ndarray] = None
        self.aligned_uas_: List[str] = []
        self.trained_ua_support_: Dict[str, int] = {}

    # ------------------------------------------------------------------

    def fit(
        self,
        matrix: np.ndarray,
        ua_keys: Sequence[str],
        align_rare: bool = True,
        jobs: int = 1,
    ) -> "ClusterModel":
        """Train the full chain and build the cluster table.

        ``jobs`` sets the worker-process count for the KMeans restarts;
        any value yields a bit-identical model.
        """
        data = np.asarray(matrix, dtype=float)
        keys = list(ua_keys)
        if data.shape[0] != len(keys):
            raise ValueError("matrix rows and ua_keys must align")

        scaled, inliers = self.preprocessor.fit(data)
        inliers = self._select_outliers(data, keys)
        self.inlier_mask_ = inliers
        self.n_outliers_ = int((~inliers).sum())
        train = scaled[inliers]
        train_keys = [k for k, keep in zip(keys, inliers) if keep]

        self.pca = PCA(n_components=self.config.n_pca_components).fit(train)
        projected = self.pca.transform(train)
        self.kmeans = KMeans(
            n_clusters=self.config.n_clusters,
            n_init=self.config.kmeans_n_init,
            random_state=self.config.random_state,
            jobs=jobs,
        ).fit(projected)

        labels = self.kmeans.labels_
        self.trained_ua_support_ = dict(Counter(train_keys))
        self.ua_to_cluster = majority_cluster_map(train_keys, labels)
        self.accuracy_ = majority_cluster_accuracy(train_keys, labels)
        if align_rare:
            self._align_rare_user_agents()
        self._rebuild_table()
        return self

    def predict_clusters(self, matrix: np.ndarray) -> np.ndarray:
        """Cluster assignment for raw (unscaled) feature rows."""
        self._check_fitted()
        scaled = self.preprocessor.transform(matrix)
        return self.kmeans.predict(self.pca.transform(scaled))

    def predict_cluster(self, vector: np.ndarray) -> int:
        """Cluster assignment for one raw feature vector."""
        return int(self.predict_clusters(np.asarray(vector)[None, :])[0])

    def expected_cluster(self, ua_key: str) -> Optional[int]:
        """Table cluster of a user-agent, or ``None`` if unknown."""
        return self.ua_to_cluster.get(ua_key)

    def reference_vector(self, ua_key: str) -> Optional[np.ndarray]:
        """Lab fingerprint of a pristine install of ``ua_key``."""
        try:
            parsed = parse_ua_key(ua_key)
        except UserAgentError:
            return None
        profile = BrowserProfile(parsed.vendor, parsed.version)
        collector = FingerprintCollector(self.specs)
        return collector.collect(profile.environment(self.evolution))

    # ------------------------------------------------------------------

    def _select_outliers(self, data: np.ndarray, keys: List[str]) -> np.ndarray:
        """Pick the training outliers, skipping legitimate relics.

        The paper manually verified that none of the rows its Isolation
        Forest eliminated "corresponded to feature values of a legitimate
        browser instance".  This automates that verification: walking
        down the anomaly-score ranking, rows whose vector equals the
        reference fingerprint of their claimed release (rare-but-genuine
        relics such as legacy Edge) are kept, and the contamination
        budget is spent on the highest-scoring *non-legitimate* rows.
        """
        forest = self.preprocessor.outlier_model
        scores = forest.fit_scores_
        budget = max(1, int(round(self.config.outlier_contamination * len(keys))))
        # Walk the full ranking if needed: whole relic populations
        # (hundreds of identical legacy-Edge rows) can occupy the top of
        # the anomaly scores, and all of them are legitimate.
        order = np.argsort(scores)[::-1]

        reference_cache: Dict[str, Optional[tuple]] = {}
        inliers = np.ones(len(keys), dtype=bool)
        removed = 0
        for idx in order:
            if removed >= budget:
                break
            key = keys[idx]
            if key not in reference_cache:
                vector = self.reference_vector(key)
                reference_cache[key] = (
                    None if vector is None else tuple(int(v) for v in vector)
                )
            reference = reference_cache[key]
            if reference is not None and reference == tuple(
                int(v) for v in data[idx]
            ):
                continue  # a pristine legitimate fingerprint: keep it
            inliers[idx] = False
            removed += 1
        return inliers

    def _align_rare_user_agents(self) -> None:
        """Override table entries of under-supported user-agents."""
        self.aligned_uas_ = []
        for ua_key, support in sorted(self.trained_ua_support_.items()):
            if support >= self.config.min_ua_support:
                continue
            reference = self.reference_vector(ua_key)
            if reference is None:
                continue
            aligned = self.predict_cluster(reference)
            if aligned != self.ua_to_cluster.get(ua_key):
                self.ua_to_cluster[ua_key] = aligned
                self.aligned_uas_.append(ua_key)

    def _rebuild_table(self) -> None:
        table: Dict[int, List[str]] = {
            c: [] for c in range(self.config.n_clusters)
        }
        for ua_key, cluster in sorted(self.ua_to_cluster.items()):
            table[cluster].append(ua_key)
        self.cluster_table = table

    def _check_fitted(self) -> None:
        if self.kmeans is None or self.pca is None:
            raise RuntimeError("ClusterModel is not fitted; call fit() first")
