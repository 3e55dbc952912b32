"""Browser Polygraph core: the paper's primary contribution.

The pipeline (Sections 6.4-6.6):

* :mod:`repro.core.config` — hyper-parameters (28 features, 7 PCA
  components, k=11, Isolation Forest threshold, risk constants);
* :mod:`repro.core.feature_selection` — the 513-candidate to 28-feature
  reduction of Section 6.3;
* :mod:`repro.core.preprocessing` — scaling + outlier removal;
* :mod:`repro.core.clustering` — PCA + KMeans + the cluster-to-user-agent
  table (paper Table 3), including rare-UA alignment;
* :mod:`repro.core.risk` — Algorithm 1 (the risk factor);
* :mod:`repro.core.detection` — online flagging of sessions;
* :mod:`repro.core.drift` — per-release drift checks and the retraining
  signal;
* :mod:`repro.core.pipeline` — the :class:`BrowserPolygraph` facade;
* :mod:`repro.core.model_store` — JSON persistence of trained models.
"""

from repro.core.clustering import ClusterModel
from repro.core.config import PipelineConfig
from repro.core.detection import DetectionReport, DetectionResult, FraudDetector
from repro.core.drift import DriftDetector, DriftRecord
from repro.core.explain import DetectionExplanation, explain_detection
from repro.core.pipeline import BrowserPolygraph
from repro.core.preprocessing import Preprocessor
from repro.core.retraining import ModelRegistry, RetrainingOrchestrator
from repro.core.risk import risk_factor, user_agent_distance
from repro.core.sampling import stratified_sample

__all__ = [
    "BrowserPolygraph",
    "ClusterModel",
    "DetectionReport",
    "DetectionResult",
    "DetectionExplanation",
    "DriftDetector",
    "DriftRecord",
    "FraudDetector",
    "ModelRegistry",
    "PipelineConfig",
    "Preprocessor",
    "RetrainingOrchestrator",
    "explain_detection",
    "risk_factor",
    "stratified_sample",
    "user_agent_distance",
]
