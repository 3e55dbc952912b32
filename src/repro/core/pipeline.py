"""The Browser Polygraph facade.

One object tying the whole system together the way the FinOrg
deployment runs it:

>>> polygraph = BrowserPolygraph()
>>> polygraph.fit(training_dataset)          # offline (Section 6.4)
>>> report = polygraph.detect(live_dataset)  # online (Section 6.5)
>>> records = polygraph.drift_report(new)    # scheduled (Section 6.6)
>>> if polygraph.retrain_needed(records):
...     polygraph.retrain(extended_dataset)
"""

from __future__ import annotations

import threading
from datetime import date
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.clustering import ClusterModel
from repro.core.config import PipelineConfig
from repro.core.detection import DetectionReport, DetectionResult, FraudDetector
from repro.core.drift import DriftDetector, DriftRecord
from repro.core.model_store import load_model, save_model
from repro.fingerprint.features import FEATURE_SPECS, FeatureSpec
from repro.fingerprint.script import FingerprintPayload
from repro.traffic.dataset import Dataset

__all__ = ["BrowserPolygraph"]


class BrowserPolygraph:
    """End-to-end coarse-grained fraud detection pipeline."""

    def __init__(
        self,
        config: PipelineConfig = PipelineConfig(),
        specs: Sequence[FeatureSpec] = FEATURE_SPECS,
    ) -> None:
        self.config = config
        self.specs = tuple(specs)
        self.cluster_model: Optional[ClusterModel] = None
        self._detector: Optional[FraudDetector] = None
        # Model swaps (fit/retrain/load) are atomic: the model, the
        # detector and the generation counter move together under this
        # lock, so a reader never observes a half-installed model.
        self._swap_lock = threading.RLock()
        self._generation = 0
        self._retrain_listeners: List[Callable[[int], None]] = []

    # ------------------------------------------------------------------
    # training

    def fit(
        self, dataset: Dataset, align_rare: bool = True, jobs: int = 1
    ) -> "BrowserPolygraph":
        """Train the clustering model on a FinOrg-shaped dataset.

        ``jobs`` fans the KMeans restarts over worker processes; the
        trained model is bit-identical at any setting.
        """
        if dataset.n_features != len(self.specs):
            raise ValueError(
                f"dataset has {dataset.n_features} features, "
                f"pipeline expects {len(self.specs)}"
            )
        model = ClusterModel(self.config, specs=self.specs)
        model.fit(
            dataset.matrix(),
            list(dataset.ua_keys),
            align_rare=align_rare,
            jobs=jobs,
        )
        self._install_model(model)
        return self

    def retrain(
        self, dataset: Dataset, align_rare: bool = True, jobs: int = 1
    ) -> "BrowserPolygraph":
        """Retrain from scratch on an extended window (drift response)."""
        return self.fit(dataset, align_rare=align_rare, jobs=jobs)

    def install(self, model: ClusterModel) -> "BrowserPolygraph":
        """Atomically adopt an externally trained :class:`ClusterModel`.

        The rollout manager's promotion/rollback mechanism: a candidate
        (or a restored baseline) trained elsewhere is swapped in under
        the same lock as :meth:`fit`, bumping the generation counter and
        firing the retrain listeners — so the verdict cache invalidates
        exactly as it would for an in-place retrain.
        """
        if model.kmeans is None:
            raise ValueError("cannot install an unfitted ClusterModel")
        self._install_model(model)
        return self

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has run."""
        return self.cluster_model is not None

    @property
    def model_generation(self) -> int:
        """Monotonic counter bumped on every model install/swap."""
        with self._swap_lock:
            return self._generation

    def add_retrain_listener(self, callback: Callable[[int], None]) -> None:
        """Register ``callback(generation)`` to fire after model swaps.

        The runtime's verdict cache subscribes here so a retrain (or a
        drift-triggered swap) invalidates cached verdicts immediately.
        Callbacks run outside the swap lock, after the new model is
        fully installed.
        """
        with self._swap_lock:
            self._retrain_listeners.append(callback)

    def remove_retrain_listener(self, callback: Callable[[int], None]) -> None:
        """Unregister a listener added with :meth:`add_retrain_listener`."""
        with self._swap_lock:
            if callback in self._retrain_listeners:
                self._retrain_listeners.remove(callback)

    def detection_snapshot(self) -> Tuple[int, FraudDetector]:
        """A consistent ``(generation, detector)`` pair.

        Callers scoring a batch must take one snapshot and use its
        detector for the whole batch: a retrain mid-flight then cannot
        score half the batch on the old model and half on the new one.
        """
        with self._swap_lock:
            self._require_fitted()
            return self._generation, self._detector

    @property
    def accuracy(self) -> float:
        """Majority-cluster training accuracy (paper: 99.6%)."""
        self._require_fitted()
        return float(self.cluster_model.accuracy_)

    @property
    def cluster_table(self) -> Dict[int, List[str]]:
        """The cluster-to-user-agent table (paper Table 3)."""
        self._require_fitted()
        return {k: list(v) for k, v in self.cluster_model.cluster_table.items()}

    # ------------------------------------------------------------------
    # online detection

    def detect(self, dataset: Dataset) -> DetectionReport:
        """Evaluate a batch of sessions."""
        self._require_fitted()
        return self._detector.evaluate_dataset(dataset)

    def detect_session(
        self, features: Union[np.ndarray, Sequence[int]], user_agent: str
    ) -> DetectionResult:
        """Evaluate a single session (the real-time path)."""
        self._require_fitted()
        return self._detector.evaluate_vector(np.asarray(features), user_agent)

    def detect_vectors(
        self,
        matrix: Union[np.ndarray, Sequence[Sequence[int]]],
        user_agents: Sequence[str],
    ) -> List[DetectionResult]:
        """Evaluate many sessions in one vectorized model call.

        The batch API behind the high-throughput runtime: one
        scaler→PCA→KMeans pass over the ``(n, n_features)`` matrix
        instead of ``n`` single-row calls.  Row ``i`` of the result is
        identical to ``detect_session(matrix[i], user_agents[i])``, and
        the whole batch is scored against one model snapshot even if a
        retrain lands mid-call.
        """
        _, detector = self.detection_snapshot()
        return detector.evaluate_vectors(np.asarray(matrix), user_agents)

    def escalate_result(
        self, result: DetectionResult, suspicious_globals: Sequence[str]
    ) -> DetectionResult:
        """Apply the Section 8 namespace-probe escalation to a verdict.

        With ``enable_namespace_probe`` set, a payload carrying
        fraud-browser namespace artifacts is escalated to the maximum
        risk factor even when its coarse-grained fingerprint matches the
        claimed user-agent — catching sloppy wrapper builds (AntBrowser)
        whose engine coincidentally matches the spoofed release.
        """
        if self.config.enable_namespace_probe and suspicious_globals:
            return DetectionResult(
                ua_key=result.ua_key,
                predicted_cluster=result.predicted_cluster,
                expected_cluster=result.expected_cluster,
                flagged=True,
                risk_factor=self.config.vendor_mismatch_risk,
                inferred_release=result.inferred_release,
                inferred_distance=result.inferred_distance,
            )
        return result

    def detect_payload(self, payload: FingerprintPayload) -> DetectionResult:
        """Evaluate a wire payload produced by the collection script."""
        result = self.detect_session(payload.vector(), payload.user_agent)
        return self.escalate_result(result, payload.suspicious_globals)

    # ------------------------------------------------------------------
    # drift

    def drift_report(
        self,
        dataset: Dataset,
        check_dates: Optional[Dict[str, date]] = None,
        min_sessions: int = 50,
        check_date: Optional[date] = None,
    ) -> List[DriftRecord]:
        """Evaluate the new releases present in ``dataset`` (Table 6)."""
        self._require_fitted()
        return DriftDetector(self.cluster_model).evaluate_window(
            dataset, check_dates, min_sessions=min_sessions, check_date=check_date
        )

    def retrain_needed(self, records: Sequence[DriftRecord]) -> bool:
        """Whether the drift records trip the Section 6.6 trigger."""
        self._require_fitted()
        return DriftDetector(self.cluster_model).retrain_needed(records)

    # ------------------------------------------------------------------
    # persistence

    def save(self, path: Union[str, Path]) -> str:
        """Persist the trained model to JSON; returns its sha256 digest."""
        self._require_fitted()
        return save_model(self.cluster_model, path)

    @classmethod
    def load(
        cls, path: Union[str, Path], expected_digest: Optional[str] = None
    ) -> "BrowserPolygraph":
        """Restore a pipeline saved with :meth:`save` (``expected_digest``:
        see :func:`~repro.core.model_store.load_model`)."""
        model = load_model(path, expected_digest)
        pipeline = cls(config=model.config, specs=model.specs)
        pipeline._install_model(model)
        return pipeline

    # ------------------------------------------------------------------

    def _install_model(self, model: ClusterModel) -> None:
        """Atomically swap in a fully-built model, then notify listeners."""
        detector = FraudDetector(model)
        with self._swap_lock:
            self.cluster_model = model
            self._detector = detector
            self.config = model.config
            self.specs = tuple(model.specs)
            self._generation += 1
            generation = self._generation
            listeners = tuple(self._retrain_listeners)
        for callback in listeners:
            callback(generation)

    def _require_fitted(self) -> None:
        if self.cluster_model is None:
            raise RuntimeError("BrowserPolygraph is not fitted; call fit() first")
