"""Per-vendor evolution model of the Web API surface.

Real browsers change their JavaScript prototype surfaces in discrete
steps: a Chromium release train ships a batch of new ``Element`` methods,
a Gecko refactor reshapes the DOM hierarchy.  The paper's whole detection
signal rests on this structure — property counts are constant inside an
*engine era* and jump at era boundaries, in vendor-specific ways.

:class:`EvolutionModel` encodes that structure deterministically:

* Three engines: ``CHROMIUM`` (Chrome, Edge 79+, Brave), ``GECKO``
  (Firefox, Tor), ``EDGEHTML`` (legacy Edge 17-19).
* Era boundaries chosen so the engine eras correspond to the user-agent
  groups of paper Table 3 (e.g. Chromium eras starting at versions 59,
  69, 90, 102, 110 and 114).
* Per-interface parameters (base property count, per-era increments,
  vendor offsets) drawn once from a seeded generator, with the paper's
  Table 8 interfaces given the largest increments so they dominate the
  variance exactly as their Table 7 entropies suggest.
* The Firefox 119 event from Section 7.3: a Gecko refactor that aligns
  the ``Element``-family surfaces with mid-era Chromium counts, which is
  what pushes Firefox 119 into a Chromium cluster and triggers the
  paper's retraining signal.

Counts are exact functions of ``(interface, engine, version)``;
configuration and extension perturbations are layered on top by
:mod:`repro.browsers.configs`.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.jsengine.catalog import STABLE_INTERFACES, VOLATILE_INTERFACES

__all__ = [
    "CHROMIUM_ERA_STARTS",
    "Engine",
    "EvolutionModel",
    "GECKO_119_SHIFT",
    "GECKO_ERA_STARTS",
    "NamedProperty",
    "PRIMARY_INTERFACES",
    "SECONDARY_INTERFACES",
    "CONFIG_SENSITIVE_INTERFACES",
    "default_model",
]


class Engine(str, Enum):
    """Browser engine families distinguished by the simulator."""

    CHROMIUM = "chromium"
    GECKO = "gecko"
    EDGEHTML = "edgehtml"


# Engine-era boundaries.  A version belongs to the era started by the
# largest boundary <= version.  The Chromium eras correspond one-to-one
# with the Chromium rows of paper Table 3; the Gecko eras with its
# Firefox rows.
CHROMIUM_ERA_STARTS: Tuple[int, ...] = (59, 69, 90, 102, 110, 114)
GECKO_ERA_STARTS: Tuple[int, ...] = (46, 51, 92, 101)

# Gecko 119 aligns these interfaces' surfaces with Chromium mid-era
# counts (the Section 7.3 "Element prototype implementation" change).
GECKO_119_SHIFT: Tuple[str, ...] = (
    "Element",
    "Document",
    "HTMLElement",
    "SVGElement",
    "ShadowRoot",
    "Range",
    "Text",
    "DocumentFragment",
    "PointerEvent",
    "HTMLMediaElement",
)
_GECKO_119_REVERT_VERSION = 100  # the era whose surface Gecko 119 reverts to

# The 22 deviation-based interfaces of paper Table 8, with hand-picked
# realistic base property counts.  Their per-era increments are the
# largest in the model, so a standard-deviation ranking of the collected
# data recovers exactly this set — mirroring the paper's feature
# selection outcome.
PRIMARY_INTERFACES: Dict[str, int] = {
    "Element": 300,
    "Document": 250,
    "HTMLElement": 135,
    "SVGElement": 60,
    "SVGFEBlendElement": 10,
    "TextMetrics": 12,
    "Range": 40,
    "StaticRange": 4,
    "AuthenticatorAttestationResponse": 5,
    "HTMLVideoElement": 25,
    "ResizeObserverEntry": 6,
    "ShadowRoot": 20,
    "PointerEvent": 30,
    "IntersectionObserver": 8,
    "CanvasRenderingContext2D": 70,
    "CSSStyleSheet": 15,
    "AudioContext": 12,
    "HTMLLinkElement": 20,
    "HTMLMediaElement": 50,
    "WebGL2RenderingContext": 300,
    "WebGLRenderingContext": 250,
    "CSSRule": 20,
}

# Interfaces whose variance puts them immediately after the Table 8 set
# in the standard-deviation ranking, in exactly the order Appendix-4
# Table 12 adds them (feature counts 32, 36 and 42).  Interfaces flagged
# ``absent_in_gecko`` report a zero count on Firefox, matching the
# paper's note that two of each group of four are Chromium-only.
SECONDARY_INTERFACES: Tuple[Tuple[str, bool], ...] = (
    ("HTMLIFrameElement", False),
    ("SVGAElement", False),
    ("RemotePlayback", True),
    ("StylePropertyMapReadOnly", True),
    ("Screen", False),
    ("Request", False),
    ("TouchEvent", True),
    ("TaskAttributionTiming", True),
    ("PictureInPictureWindow", False),
    ("ReportingObserver", False),
    ("HTMLTemplateElement", True),
    ("MediaSession", True),
)

# Volatile interfaces that user configurations or extensions can zero or
# reshape wholesale (Section 6.3): disabling Service Workers, WebRTC,
# payments, and so on.  These survive candidate generation but are
# excluded during data pre-processing because their real-world values
# are unstable within a single user-agent.
CONFIG_SENSITIVE_INTERFACES: Tuple[str, ...] = (
    "Navigator",
    "ServiceWorker",
    "ServiceWorkerContainer",
    "ServiceWorkerRegistration",
    "StorageManager",
    "RTCIceCandidate",
    "RTCPeerConnection",
    "RTCRtpReceiver",
    "RTCRtpSender",
    "RTCRtpTransceiver",
    "RTCDataChannel",
    "RTCDataChannelEvent",
    "RTCDTMFSender",
    "RTCDTMFToneChangeEvent",
    "RTCCertificate",
    "RTCSessionDescription",
    "RTCStatsReport",
    "RTCTrackEvent",
    "RTCPeerConnectionIceEvent",
    "PaymentRequest",
    "PaymentResponse",
    "PaymentAddress",
    "PushManager",
    "PushSubscription",
    "PushSubscriptionOptions",
    "Presentation",
    "PresentationAvailability",
    "PresentationConnection",
    "PresentationConnectionAvailableEvent",
    "PresentationConnectionCloseEvent",
    "PresentationConnectionList",
    "PresentationReceiver",
    "PresentationRequest",
    "Sensor",
    "SensorErrorEvent",
    "RelativeOrientationSensor",
    "Plugin",
    "PluginArray",
    "Clipboard",
    "MediaDevices",
    "MediaRecorder",
    "MediaKeys",
    "SharedWorker",
    "PublicKeyCredential",
    "SubtleCrypto",
    "Crypto",
    "GamepadButton",
    "SpeechSynthesisUtterance",
    "SpeechSynthesisEvent",
    "SpeechSynthesisErrorEvent",
)


@dataclass(frozen=True)
class NamedProperty:
    """A time-based (existence) feature: one property on one prototype.

    ``chromium_from`` / ``gecko_from`` give the engine version that first
    exposes the property (``None`` = never); ``edgehtml`` says whether
    legacy Edge exposes it at all.
    """

    interface: str
    prop: str
    chromium_from: Optional[int]
    gecko_from: Optional[int]
    edgehtml: bool

    def key(self) -> str:
        """Stable feature identifier, e.g. ``Navigator.deviceMemory``."""
        return f"{self.interface}.{self.prop}"

    def present(self, engine: Engine, version: int) -> bool:
        """Whether the property exists for this engine release."""
        if engine is Engine.EDGEHTML:
            return self.edgehtml
        threshold = (
            self.chromium_from if engine is Engine.CHROMIUM else self.gecko_from
        )
        return threshold is not None and version >= threshold


# The six time-based features the paper retains (Table 8 rows 23-28).
# Their presence splits engine families, so both values enjoy large
# support in real traffic — the property that keeps them through the
# pre-processing filter.
CANONICAL_TIME_PROPERTIES: Tuple[NamedProperty, ...] = (
    NamedProperty("Navigator", "deviceMemory", chromium_from=63, gecko_from=None, edgehtml=False),
    NamedProperty("BaseAudioContext", "currentTime", chromium_from=59, gecko_from=None, edgehtml=False),
    NamedProperty("HTMLVideoElement", "webkitDisplayingFullscreen", chromium_from=59, gecko_from=None, edgehtml=False),
    NamedProperty("Screen", "orientation", chromium_from=59, gecko_from=None, edgehtml=True),
    NamedProperty("Window", "speechSynthesis", chromium_from=None, gecko_from=46, edgehtml=False),
    NamedProperty("CSSStyleDeclaration", "getPropertyValue", chromium_from=59, gecko_from=None, edgehtml=True),
)

_TIME_PROPERTY_COUNT = 313


@dataclass(frozen=True)
class _InterfaceProfile:
    """Evolution parameters of one interface."""

    base: int
    gecko_offset: int
    edgehtml_offset: int
    chromium_deltas: Tuple[int, ...]  # one per boundary after the first era
    gecko_deltas: Tuple[int, ...]
    absent_in_gecko: bool = False
    absent_in_edgehtml: bool = False


class EvolutionModel:
    """Deterministic property-count model for every catalog interface.

    Parameters
    ----------
    seed:
        Seed for the one-off parameter draw.  Two models with equal seeds
        agree on every count forever, which keeps the entire reproduction
        deterministic.
    """

    def __init__(self, seed: int = 20240704) -> None:
        self.seed = seed
        self._profiles = self._draw_profiles(np.random.default_rng(seed))
        self.time_properties = self._draw_time_properties(
            np.random.default_rng(seed + 1)
        )
        self._named_by_interface: Dict[str, List[NamedProperty]] = {}
        for named in self.time_properties:
            self._named_by_interface.setdefault(named.interface, []).append(named)
        self._count_cache: Dict[Tuple[str, Engine, int], int] = {}

    # ------------------------------------------------------------------
    # public queries

    def property_count(self, interface: str, engine: Engine, version: int) -> int:
        """Own-property count of ``interface.prototype`` for a release.

        Unknown interfaces count 0 — the paper's collection script reports
        0 for prototypes the browser does not expose.
        """
        key = (interface, engine, int(version))
        cached = self._count_cache.get(key)
        if cached is not None:
            return cached
        count = self._structural_count(interface, engine, int(version))
        if count > 0:
            count += sum(
                1
                for named in self._named_by_interface.get(interface, ())
                if named.present(engine, int(version))
            )
        self._count_cache[key] = count
        return count

    def has_property(
        self, interface: str, prop: str, engine: Engine, version: int
    ) -> bool:
        """Existence of ``interface.prototype[prop]`` for a release."""
        if self._structural_count(interface, engine, int(version)) <= 0:
            return False
        for named in self._named_by_interface.get(interface, ()):
            if named.prop == prop:
                return named.present(engine, int(version))
        return False

    def property_names(
        self, interface: str, engine: Engine, version: int
    ) -> Tuple[str, ...]:
        """Concrete own-property names, consistent with the counts.

        Structural properties carry synthetic names; named (time-based)
        properties appear under their real names.
        """
        structural = self._structural_count(interface, engine, int(version))
        if structural <= 0:
            return ()
        from repro.jsengine.membernames import member_names

        present_named = [
            named.prop
            for named in self._named_by_interface.get(interface, ())
            if named.present(engine, int(version))
        ]
        names = list(member_names(interface, structural))
        # Named (time-based) properties are appended under their real
        # names; on the rare collision the structural name yields.
        collisions = set(names) & set(present_named)
        if collisions:
            names = [
                n if n not in collisions else f"{interface}$alt{i:03d}"
                for i, n in enumerate(names)
            ]
        names.extend(present_named)
        return tuple(names)

    def count_vector(
        self, interfaces: Sequence[str], engine: Engine, version: int
    ) -> np.ndarray:
        """Vector of property counts for ``interfaces`` (fast path)."""
        return np.array(
            [self.property_count(i, engine, version) for i in interfaces],
            dtype=np.int32,
        )

    def chromium_era(self, version: int) -> int:
        """Index of the Chromium era containing ``version``."""
        return _era_index(CHROMIUM_ERA_STARTS, version)

    def gecko_era(self, version: int) -> int:
        """Index of the Gecko era containing ``version``."""
        return _era_index(GECKO_ERA_STARTS, version)

    # ------------------------------------------------------------------
    # internals

    def _structural_count(self, interface: str, engine: Engine, version: int) -> int:
        profile = self._profiles.get(interface)
        if profile is None:
            return 0
        if engine is Engine.EDGEHTML:
            if profile.absent_in_edgehtml:
                return 0
            return max(0, profile.base + profile.edgehtml_offset)
        if engine is Engine.CHROMIUM:
            return self._chromium_count(profile, version)
        if profile.absent_in_gecko:
            return 0
        if version >= 119:
            # Gecko 119 DOM refactor (Section 7.3's Element-prototype
            # change): the re-architected implementation shipped with the
            # post-100 surface batch disabled, so the whole coarse
            # surface reverts to the Firefox 93-100 era — with fresh
            # per-interface skews on the Element family from the new
            # implementation.  The observable effect is the paper's:
            # Firefox 119's feature values change substantially versus
            # 118 and its sessions land in a *different* existing
            # cluster, tripping the retraining signal.
            era = self.gecko_era(_GECKO_119_REVERT_VERSION)
            count = (
                profile.base
                + profile.gecko_offset
                + sum(profile.gecko_deltas[:era])
            )
            if interface in GECKO_119_SHIFT:
                count += _stable_small_int(interface, self.seed, bound=2)
            return max(0, count)
        era = self.gecko_era(version)
        return max(
            0,
            profile.base + profile.gecko_offset + sum(profile.gecko_deltas[:era]),
        )

    def _chromium_count(self, profile: _InterfaceProfile, version: int) -> int:
        era = self.chromium_era(version)
        return max(0, profile.base + sum(profile.chromium_deltas[:era]))

    def _draw_profiles(
        self, rng: np.random.Generator
    ) -> Dict[str, _InterfaceProfile]:
        profiles: Dict[str, _InterfaceProfile] = {}
        n_chromium_boundaries = len(CHROMIUM_ERA_STARTS) - 1
        n_gecko_boundaries = len(GECKO_ERA_STARTS) - 1

        element_family = {"Element", "Document", "HTMLElement", "SVGElement"}
        secondary_order = [name for name, _ in SECONDARY_INTERFACES]
        secondary_absent = {name: absent for name, absent in SECONDARY_INTERFACES}
        config_sensitive = set(CONFIG_SENSITIVE_INTERFACES)

        # Engines evolve largely disjoint parts of the platform: some
        # interfaces grow mainly on Chromium trains, some on Gecko
        # trains, some on both.  This keeps old releases of both vendors
        # near the shared base (Table 3's clusters 2 and 6) while modern
        # releases diverge along orthogonal directions — modern Firefox
        # never drifts through the Chromium era positions.  Classes are
        # assigned round-robin over the Table 8 order so the variance
        # budget of the primary set never depends on generator luck.
        primary_cycle = ("chromium", "gecko", "shared")
        primary_rank = {name: i for i, name in enumerate(PRIMARY_INTERFACES)}

        for interface in VOLATILE_INTERFACES:
            if interface in PRIMARY_INTERFACES:
                base = PRIMARY_INTERFACES[interface]
                if interface in element_family:
                    evolution_class = "shared"
                    c_low, c_high, g_low, g_high = 6, 12, 6, 12
                else:
                    evolution_class = primary_cycle[
                        primary_rank[interface] % len(primary_cycle)
                    ]
                    if evolution_class == "chromium":
                        c_low, c_high, g_low, g_high = 4, 8, 3, 5
                    elif evolution_class == "gecko":
                        c_low, c_high, g_low, g_high = 3, 5, 4, 8
                    else:
                        c_low, c_high, g_low, g_high = 4, 7, 4, 7
                chromium = tuple(
                    int(rng.integers(c_low, c_high + 1))
                    for _ in range(n_chromium_boundaries)
                )
                gecko = tuple(
                    int(rng.integers(g_low, g_high + 1))
                    for _ in range(n_gecko_boundaries)
                )
                profiles[interface] = _InterfaceProfile(
                    base=base,
                    gecko_offset=int(rng.integers(-3, 4)),
                    edgehtml_offset=-int(rng.integers(3, 9)),
                    chromium_deltas=chromium,
                    gecko_deltas=gecko,
                )
            elif interface in secondary_absent:
                # Deltas descend with Table 12 rank so these interfaces
                # fill the standard-deviation ranking immediately below
                # the Table 8 set, in roughly the paper's order.
                rank = secondary_order.index(interface)
                absent = secondary_absent[interface]
                scale = 2 if rank < 4 else 1
                # Chromium-only interfaces carry a pure vendor contrast
                # (present vs absent, the paper's "absent in Firefox"
                # additions); the shared ones also step across eras.
                chromium = tuple(
                    (0 if absent else scale) if b < 2 else (
                        0 if absent else int(rng.integers(0, 2))
                    )
                    for b in range(n_chromium_boundaries)
                )
                gecko = (
                    (0,) * n_gecko_boundaries
                    if absent
                    else tuple(
                        scale if b < 1 else int(rng.integers(0, 2))
                        for b in range(n_gecko_boundaries)
                    )
                )
                # Chromium-only interfaces stay small so their present
                # vs-absent contrast ranks them just below the Table 8
                # set, not inside it.
                base = 3 if absent else int(rng.integers(8, 15))
                profiles[interface] = _InterfaceProfile(
                    base=base,
                    gecko_offset=int(rng.integers(-2, 3)),
                    edgehtml_offset=-int(rng.integers(1, 3)),
                    chromium_deltas=chromium,
                    gecko_deltas=gecko,
                    absent_in_gecko=absent,
                )
            elif interface in config_sensitive:
                profiles[interface] = _InterfaceProfile(
                    base=int(rng.integers(5, 25)),
                    gecko_offset=int(rng.integers(-2, 3)),
                    edgehtml_offset=-int(rng.integers(1, 5)),
                    chromium_deltas=tuple(
                        int(rng.integers(0, 2)) for _ in range(n_chromium_boundaries)
                    ),
                    gecko_deltas=tuple(
                        int(rng.integers(0, 2)) for _ in range(n_gecko_boundaries)
                    ),
                )
            else:
                # Legacy-volatile: changed somewhere in 2017-2022, but only
                # marginally — a single small bump at one boundary.
                bump_at = int(rng.integers(0, n_chromium_boundaries))
                chromium = tuple(
                    1 if b == bump_at else 0 for b in range(n_chromium_boundaries)
                )
                gecko_bump = int(rng.integers(0, n_gecko_boundaries))
                gecko = tuple(
                    1 if b == gecko_bump else 0 for b in range(n_gecko_boundaries)
                )
                profiles[interface] = _InterfaceProfile(
                    base=int(rng.integers(3, 20)),
                    gecko_offset=int(rng.integers(-1, 2)),
                    edgehtml_offset=-int(rng.integers(0, 3)),
                    chromium_deltas=chromium,
                    gecko_deltas=gecko,
                )

        flat = (0,)
        for interface in STABLE_INTERFACES:
            profiles[interface] = _InterfaceProfile(
                base=int(rng.integers(3, 45)),
                gecko_offset=0,
                edgehtml_offset=0,
                chromium_deltas=flat * n_chromium_boundaries,
                gecko_deltas=flat * n_gecko_boundaries,
            )
        return profiles

    def _draw_time_properties(
        self, rng: np.random.Generator
    ) -> Tuple[NamedProperty, ...]:
        """The 313 BrowserPrint-style existence features.

        Six are the canonical Table 8 features; the remainder follow the
        paper's observation that most of BrowserPrint's 2020-era features
        no longer track modern browsers: ~40% are always present, ~30%
        never materialized, and ~30% vary only for ancient releases.
        """
        properties = list(CANONICAL_TIME_PROPERTIES)
        canonical_hosts = {p.interface for p in CANONICAL_TIME_PROPERTIES}
        # Constant (always/never present) properties live on stable
        # interfaces; properties that appeared mid-window live on
        # already-volatile interfaces so the stable set keeps exactly
        # zero count variance.
        stable_hosts = [
            name for name in STABLE_INTERFACES if name not in canonical_hosts
        ]
        absent_in_gecko = {name for name, flag in SECONDARY_INTERFACES if flag}
        volatile_hosts = [
            name
            for name in VOLATILE_INTERFACES
            if name not in canonical_hosts and name not in absent_in_gecko
        ]
        verbs = (
            "webkitRequest", "mozGet", "msMatch", "attach", "observe",
            "create", "legacy", "unstable", "queued", "vendor",
        )
        nouns = (
            "FullScreen", "Pointer", "Stream", "Battery", "Gesture",
            "Orientation", "Persist", "Profile", "Snapshot", "Channel",
        )
        index = 0
        while len(properties) < _TIME_PROPERTY_COUNT:
            prop = (
                verbs[index % len(verbs)]
                + nouns[(index // len(verbs)) % len(nouns)]
                + (str(index // (len(verbs) * len(nouns))) or "")
            )
            kind = rng.random()
            if kind < 0.4:  # always present in the studied window
                host = stable_hosts[index % len(stable_hosts)]
                named = NamedProperty(host, prop, chromium_from=1, gecko_from=1, edgehtml=True)
            elif kind < 0.7:  # never shipped
                host = stable_hosts[index % len(stable_hosts)]
                named = NamedProperty(host, prop, chromium_from=None, gecko_from=None, edgehtml=False)
            else:  # appeared mid-window; only ancient releases lack it
                host = volatile_hosts[index % len(volatile_hosts)]
                named = NamedProperty(
                    host,
                    prop,
                    chromium_from=int(rng.integers(60, 75)),
                    gecko_from=int(rng.integers(47, 60)),
                    edgehtml=bool(rng.random() < 0.5),
                )
            properties.append(named)
            index += 1
        return tuple(properties)


def _era_index(starts: Tuple[int, ...], version: int) -> int:
    """Number of boundaries at or below ``version`` minus one.

    Versions before the first boundary clamp into era 0 (the simulator
    treats pre-window releases as frozen at the earliest surface).
    """
    return max(0, bisect.bisect_right(starts, int(version)) - 1)


def _stable_small_int(text: str, seed: int, bound: int) -> int:
    """Deterministic small integer in ``[-bound, bound]`` from a string."""
    import zlib

    digest = zlib.crc32(f"{seed}:{text}".encode("utf-8"))
    return digest % (2 * bound + 1) - bound


@lru_cache(maxsize=4)
def default_model(seed: int = 20240704) -> EvolutionModel:
    """Shared process-wide model instance (profiles are draw-once)."""
    return EvolutionModel(seed=seed)
