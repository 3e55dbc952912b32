"""Deployment service layer: the FinOrg integration.

The paper's system runs inside a high-traffic web application: an
in-page script posts sub-kilobyte payloads to a backend, which must
validate them, score them in real time against the trained model,
persist them for the next training window, and keep operational
watch over flag rates and drift.  This subpackage provides that
production shell around the core pipeline:

* :mod:`repro.service.ingest` — payload validation and quarantine
  (malformed wire data never reaches the model);
* :mod:`repro.service.log` — the serve log: every accepted ``/collect``
  and ``/event`` row in memory-mapped columnar segments over a
  retention window, the "periodic datasets" FinOrg handed the authors;
* :mod:`repro.service.scoring` — the real-time scoring service:
  payload in, verdict out, with latency accounting against the
  Section 3 budget;
* :mod:`repro.service.monitoring` — rolling flag-rate windows, alert
  thresholds, and the drift-check scheduler that fires "a few days
  after the latest Firefox release".
"""

from repro.service.api import CollectionApp
from repro.service.ingest import IngestResult, PayloadValidator, QuarantineLog
from repro.service.monitoring import DriftScheduler, FlagRateMonitor
from repro.service.log import SegmentLog
from repro.service.scoring import ScoringService, Verdict

__all__ = [
    "CollectionApp",
    "DriftScheduler",
    "FlagRateMonitor",
    "IngestResult",
    "PayloadValidator",
    "QuarantineLog",
    "ScoringService",
    "SegmentLog",
    "Verdict",
]
