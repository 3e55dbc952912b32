"""Execute feature lists against a simulated JavaScript environment.

:class:`FingerprintCollector` is the in-page script of the paper: given
a list of :class:`~repro.fingerprint.features.FeatureSpec`, it evaluates
each against a :class:`~repro.jsengine.environment.JSEnvironment` —
counting own properties for deviation features, probing
``hasOwnProperty`` for time features — and returns an integer vector
(time features collapse to 0/1, as in the paper's wire format).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.fingerprint.features import FEATURE_SPECS, FeatureSpec
from repro.jsengine.environment import JSEnvironment

__all__ = ["FingerprintCollector"]


class FingerprintCollector:
    """Collect coarse-grained fingerprints from environments.

    Parameters
    ----------
    specs:
        Features to collect, in column order.  Defaults to the final
        28-feature set of paper Table 8.
    """

    def __init__(self, specs: Sequence[FeatureSpec] = FEATURE_SPECS) -> None:
        if not specs:
            raise ValueError("collector needs at least one feature spec")
        self.specs = tuple(specs)

    def collect(self, environment: JSEnvironment) -> np.ndarray:
        """Evaluate every spec; returns an int vector of feature values."""
        values = np.empty(len(self.specs), dtype=np.int32)
        for idx, spec in enumerate(self.specs):
            if spec.kind == "deviation":
                values[idx] = environment.own_property_count(spec.interface)
            else:
                values[idx] = int(
                    environment.prototype_has_own(spec.interface, spec.prop)
                )
        return values

    def feature_names(self) -> tuple:
        """The JavaScript expressions, in column order."""
        return tuple(spec.name for spec in self.specs)
