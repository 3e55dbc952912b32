"""Fraud (anti-detect) browser simulators.

Section 2.3 of the paper categorizes fraud browsers by how their
JavaScript surface reacts to user-agent spoofing:

* **Category 1** — the surface matches *no* legitimate browser
  (Linken Sphere, ClonBrowser);
* **Category 2** — the surface is a fixed legitimate engine that does
  *not* follow the spoofed user-agent (GoLogin, Incogniton, Octo
  Browser, Sphere, CheBrowser, VMLogin, AntBrowser);
* **Category 3** — the surface follows the selected user-agent
  (AdsPower), defeating coarse-grained detection;
* **Category 4** — a genuine browser driven inside a spoofed
  environment (stolen-cookie replay), also out of scope for
  coarse-grained detection.

The Table 1 inventory lives in :mod:`repro.fraudbrowsers.catalog`;
profile construction for the Section 7.2 experiment lives in
:mod:`repro.fraudbrowsers.profiles`.
"""

from repro.fraudbrowsers.base import Category, FraudBrowser, FraudProfile
from repro.fraudbrowsers.catalog import (
    FRAUD_BROWSERS,
    fraud_browser,
)
from repro.fraudbrowsers.namespace_probe import MarkerHit, scan_environment, scan_globals
from repro.fraudbrowsers.profiles import build_experiment_profiles

__all__ = [
    "Category",
    "FRAUD_BROWSERS",
    "FraudBrowser",
    "FraudProfile",
    "MarkerHit",
    "build_experiment_profiles",
    "fraud_browser",
    "scan_environment",
    "scan_globals",
]
