"""Coarse-grained fingerprint collection machinery.

The flow mirrors the paper's Sections 6.1-6.3:

* :mod:`repro.fingerprint.browserprint` — the 313 BrowserPrint-style
  *time-based* (property-existence) candidate features;
* :mod:`repro.fingerprint.candidates` — candidate fingerprint
  generation: probe every catalog interface across the lab browser
  matrix, rank by standard deviation, keep the top 200 *deviation-based*
  features;
* :mod:`repro.fingerprint.collector` — run a feature list against a
  :class:`~repro.jsengine.environment.JSEnvironment`;
* :mod:`repro.fingerprint.features` — the final 28-feature set of paper
  Table 8;
* :mod:`repro.fingerprint.script` — the deployable collection script:
  wire format, payload-size accounting, service-time measurement.
"""

from repro.fingerprint.browserprint import time_based_features
from repro.fingerprint.candidates import CandidateSet, generate_candidates
from repro.fingerprint.collector import FingerprintCollector
from repro.fingerprint.features import (
    DEVIATION_FEATURES,
    FEATURE_NAMES,
    N_FEATURES,
    TIME_FEATURES,
    FeatureSpec,
    deviation_feature_indices,
)
from repro.fingerprint.script import CollectionScript, FingerprintPayload

__all__ = [
    "CandidateSet",
    "CollectionScript",
    "DEVIATION_FEATURES",
    "FEATURE_NAMES",
    "FeatureSpec",
    "FingerprintCollector",
    "FingerprintPayload",
    "N_FEATURES",
    "TIME_FEATURES",
    "deviation_feature_indices",
    "generate_candidates",
    "time_based_features",
]
