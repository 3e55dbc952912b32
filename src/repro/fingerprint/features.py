"""The final coarse-grained feature set (paper Table 8).

28 features: 22 *deviation-based* (own-property counts of selected
prototypes) and 6 *time-based* (existence of a specific property on a
prototype).  The order below is the paper's Table 8 order and is the
canonical column order of every feature matrix in this repository.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.jsengine.evolution import CANONICAL_TIME_PROPERTIES, PRIMARY_INTERFACES

__all__ = [
    "DEVIATION_FEATURES",
    "FEATURE_NAMES",
    "FEATURE_SPECS",
    "FeatureSpec",
    "N_DEVIATION",
    "N_FEATURES",
    "N_TIME",
    "TIME_FEATURES",
    "deviation_feature_indices",
]


@dataclass(frozen=True)
class FeatureSpec:
    """One coarse-grained feature.

    ``kind`` is ``"deviation"`` (count the prototype's own properties) or
    ``"time"`` (probe one property's existence); ``prop`` is set only for
    time-based features.
    """

    kind: str
    interface: str
    prop: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("deviation", "time"):
            raise ValueError(f"unknown feature kind: {self.kind!r}")
        if self.kind == "time" and not self.prop:
            raise ValueError("time-based features require a property name")
        if self.kind == "deviation" and self.prop:
            raise ValueError("deviation features must not name a property")

    @property
    def name(self) -> str:
        """The JavaScript expression the paper lists for this feature."""
        if self.kind == "deviation":
            return f"Object.getOwnPropertyNames({self.interface}.prototype).length"
        return f"{self.interface}.prototype.hasOwnProperty('{self.prop}')"

    def key(self) -> str:
        """Short stable identifier."""
        if self.kind == "deviation":
            return f"dev:{self.interface}"
        return f"time:{self.interface}.{self.prop}"


# Table 8 rows 1-22 (deviation-based), in paper order.  The interfaces
# come from the evolution model's PRIMARY set; asserting equality keeps
# the two definitions from drifting apart.
_TABLE8_DEVIATION_ORDER: Tuple[str, ...] = (
    "Element",
    "Document",
    "HTMLElement",
    "SVGElement",
    "SVGFEBlendElement",
    "TextMetrics",
    "Range",
    "StaticRange",
    "AuthenticatorAttestationResponse",
    "HTMLVideoElement",
    "ResizeObserverEntry",
    "ShadowRoot",
    "PointerEvent",
    "IntersectionObserver",
    "CanvasRenderingContext2D",
    "CSSStyleSheet",
    "AudioContext",
    "HTMLLinkElement",
    "HTMLMediaElement",
    "WebGL2RenderingContext",
    "WebGLRenderingContext",
    "CSSRule",
)

if set(_TABLE8_DEVIATION_ORDER) != set(PRIMARY_INTERFACES):
    raise RuntimeError(
        "Table 8 deviation interfaces diverged from the evolution model"
    )

DEVIATION_FEATURES: Tuple[FeatureSpec, ...] = tuple(
    FeatureSpec("deviation", interface) for interface in _TABLE8_DEVIATION_ORDER
)

# Table 8 rows 23-28 (time-based), in paper order.
TIME_FEATURES: Tuple[FeatureSpec, ...] = tuple(
    FeatureSpec("time", named.interface, named.prop)
    for named in CANONICAL_TIME_PROPERTIES
)

FEATURE_SPECS: Tuple[FeatureSpec, ...] = DEVIATION_FEATURES + TIME_FEATURES
FEATURE_NAMES: Tuple[str, ...] = tuple(spec.name for spec in FEATURE_SPECS)

N_DEVIATION = len(DEVIATION_FEATURES)
N_TIME = len(TIME_FEATURES)
N_FEATURES = len(FEATURE_SPECS)


def deviation_feature_indices() -> List[int]:
    """Column indices of the deviation-based features (to be scaled)."""
    return [i for i, spec in enumerate(FEATURE_SPECS) if spec.kind == "deviation"]
