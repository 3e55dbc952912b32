"""Fraud browser behavioural model.

A :class:`FraudBrowser` turns a *claimed* user-agent (the victim's,
loaded from a stolen profile) into the :class:`JSEnvironment` the
session actually exposes.  The four categories of Section 2.3 differ
only in that mapping:

* Category 1 fabricates a surface that matches no legitimate engine
  (base engine counts plus per-profile random distortions);
* Category 2 always exposes the browser's own bundled engine;
* Category 3 swaps in the engine matching the claimed user-agent;
* Category 4 *is* the engine matching the claimed user-agent.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional, Tuple

import numpy as np

from repro.browsers.releases import engine_for_vendor
from repro.browsers.useragent import ParsedUserAgent
from repro.jsengine.environment import JSEnvironment
from repro.jsengine.evolution import Engine, EvolutionModel, default_model

__all__ = ["Category", "FraudBrowser", "FraudProfile"]

# Interfaces Category-1 browsers visibly tamper with: their homegrown
# spoofing layers patch prototype surfaces inconsistently.
_CATEGORY1_TAMPERED = (
    "Element",
    "Document",
    "HTMLElement",
    "SVGElement",
    "CanvasRenderingContext2D",
    "WebGL2RenderingContext",
    "WebGLRenderingContext",
    "AudioContext",
    "HTMLVideoElement",
    "PointerEvent",
    "Range",
    "ShadowRoot",
)


class Category(IntEnum):
    """Fraud browser behavioural categories (paper Section 2.3)."""

    IMPOSSIBLE_FINGERPRINT = 1
    FIXED_ENGINE = 2
    ENGINE_FOLLOWS_UA = 3
    GENUINE_BROWSER = 4


@dataclass(frozen=True)
class FraudProfile:
    """One configured profile inside a fraud browser.

    ``claimed`` is the spoofed (victim) user-agent; ``profile_seed``
    individualizes Category-1 surface distortions.
    """

    browser_name: str
    claimed: ParsedUserAgent
    profile_seed: int = 0


@dataclass(frozen=True)
class FraudBrowser:
    """A fraud browser product (one Table 1 row).

    Parameters
    ----------
    name, version:
        Product identity, e.g. ``("GoLogin", "3.3.23")``.
    category:
        Behavioural category.
    engine_version:
        For Category 1/2: the Chromium version of the bundled engine.
    released:
        Approximate release (Table 1); used only for reporting.
    supports_custom_ua:
        Whether the operator can type an arbitrary user-agent (Table 1
        notes some products only offer canned profiles).
    leaked_globals:
        Vendor artifacts the product's build leaks onto ``window`` —
        the Section 8 observation that AntBrowser exposes an
        ``ANTBROWSER`` object and ``antBrowser``-prefixed attributes,
        ironically making itself *more* fingerprintable.
    """

    name: str
    version: str
    category: Category
    engine_version: int
    released: str
    supports_custom_ua: bool = True
    leaked_globals: Tuple[str, ...] = ()

    @property
    def full_name(self) -> str:
        """Product name with version, as in Table 1."""
        return f"{self.name}-{self.version}"

    def environment(
        self,
        profile: FraudProfile,
        model: Optional[EvolutionModel] = None,
    ) -> JSEnvironment:
        """The surface a session of ``profile`` actually exposes."""
        model = model if model is not None else default_model()
        if self.category is Category.IMPOSSIBLE_FINGERPRINT:
            environment = self._impossible_environment(profile, model)
        elif self.category is Category.FIXED_ENGINE:
            environment = JSEnvironment(
                Engine.CHROMIUM, self.engine_version, model=model
            )
        else:
            # Categories 3 and 4 expose the engine the user-agent claims.
            engine = engine_for_vendor(
                profile.claimed.vendor, profile.claimed.version
            )
            environment = JSEnvironment(
                engine, profile.claimed.version, model=model
            )
        if self.leaked_globals:
            environment = environment.with_overrides(
                global_markers=self.leaked_globals
            )
        return environment

    def _impossible_environment(
        self, profile: FraudProfile, model: EvolutionModel
    ) -> JSEnvironment:
        """Category 1: bundled engine plus inconsistent patching.

        The distortions are large and profile-specific, so these
        fingerprints land far from every legitimate centroid — and, as a
        side effect, are usually *unique*, which is what drives the small
        unique-fingerprint share in the paper's Figure 5 data.
        """
        rng = np.random.default_rng(
            (hash_seed(self.full_name) * 1_000_003 + profile.profile_seed) % 2**63
        )
        adjustments = {
            interface: int(rng.integers(-28, 29))
            for interface in _CATEGORY1_TAMPERED
        }
        return JSEnvironment(
            Engine.CHROMIUM,
            self.engine_version,
            model=model,
            count_adjustments=adjustments,
        )

def hash_seed(text: str) -> int:
    """Stable non-salted hash for seeding per-product generators."""
    import zlib

    return zlib.crc32(text.encode("utf-8"))
