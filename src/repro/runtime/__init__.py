"""High-throughput scoring runtime: the web-scale online path.

The paper's pitch is *efficient deployment*: a 28-feature
coarse-grained fingerprint scored inside FinOrg's 100ms budget at
205k-session scale.  The per-request :class:`ScoringService` honours
the budget but spends a full scaler→PCA→KMeans chain on every session.
This subpackage turns that path into a web-scale one by exploiting the
paper's own design point — coarse-grained fingerprints are deliberately
low-cardinality (the Section 7 anonymity-set analysis), so live traffic
contains thousands of distinct fingerprints, not millions:

* :mod:`repro.runtime.service` — :class:`RuntimeScoringService`, whose
  ``score_many`` answers a whole batch on the calling thread: rejects
  and cache hits without the model, every miss through one vectorized
  ``evaluate_vectors`` call per rollout arm;
* :mod:`repro.runtime.batch` — the loops that turn a batch's ingest
  outcomes, cache probe and model results into verdicts;
* :mod:`repro.runtime.fastingest` — wire-contract enforcement with
  parse memoization, one lock round trip per batch;
* :mod:`repro.runtime.cache` — an LRU+TTL verdict cache keyed by the
  exact feature vector plus the parsed user-agent equivalence class,
  invalidated on every model swap;
* :mod:`repro.runtime.stats` — the runtime metrics registry (batch-size
  distribution, cache hit rate, per-stage latency percentiles)
  rendered into ``/metrics``.

The typed ``Overloaded`` shed verdict lives next to ``Verdict`` in
:mod:`repro.service.scoring`; the rollout's shadow scorer owns its own
thread (:mod:`repro.rollout.shadow`).
"""

from repro.runtime.cache import VerdictCache
from repro.runtime.service import (
    PendingVerdict,
    RuntimeConfig,
    RuntimeScoringService,
)
from repro.runtime.stats import RuntimeStats, percentile

__all__ = [
    "PendingVerdict",
    "RuntimeConfig",
    "RuntimeScoringService",
    "RuntimeStats",
    "VerdictCache",
    "percentile",
]
