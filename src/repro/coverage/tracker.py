"""Serve-time release-coverage tracking.

Every incoming user-agent is classified against the live model's
known-release table.  The tracker keeps per-vendor rolling unknown-UA
rates plus *expected-rate bands* derived from the release calendar: a
spiking unknown rate in the first days after a calendar release date is
adoption (real users updating), not attack, so the band widens by an
adoption allowance there and tightens back once the window passes.  A
vendor whose windowed unknown rate leaves its band is the signal the
:class:`~repro.coverage.planner.RefreshPlanner` escalates on.

The tracker is deliberately clock-free by default: callers under an
explicit timeline (the gauntlet's virtual clock, tests) pass ``day=`` to
:meth:`observe` and band queries, while the serving CLI passes a
``clock`` callable (the bound ``date.today``) so metrics lines can
evaluate the band at scrape time.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from dataclasses import dataclass
from datetime import date
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence, Set

from repro.browsers.releases import ReleaseCalendar, default_calendar

__all__ = [
    "CoverageBand",
    "CoverageConfig",
    "CoverageTracker",
    "VENDOR_LABELS",
    "vendor_of",
]

# Stable label set for metrics/status: the three in-scope vendors plus a
# catch-all for everything else (mobile UAs, exotic engines, garbage).
VENDOR_LABELS = ("chrome", "edge", "firefox", "other")


# Distinct unknown UA keys counted for ``top_unknown``.  A forged
# ``Chrome/<v>`` costs an attacker nothing, so past this many keys the
# counts become space-saving estimates (Metwally et al., 2005): a new
# key takes a least-counted key's slot and inherits its count.  Up to
# the cap every count is exact.
_TOP_UNKNOWN_KEYS = 1024


class _TopKeys:
    """Space-saving heavy-hitter counts over at most ``capacity`` keys.

    ``counts`` is an ordinary :class:`Counter` (first-seen order, so
    ``most_common`` ties break as an unbounded one's would); the
    count -> keys index finds a least-counted key in O(1).
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.counts: Counter = Counter()
        self._by_count: Dict[int, Dict[str, None]] = {}
        self._min = 0

    def add(self, key: str) -> None:
        count = self.counts.get(key, 0)
        if count:
            self._unfile(key, count)
        elif len(self.counts) >= self.capacity:
            count = self._min
            victim = next(iter(self._by_count[count]))
            self._unfile(victim, count)
            del self.counts[victim]
        self.counts[key] = count + 1
        self._by_count.setdefault(count + 1, {})[key] = None
        if count == 0:
            self._min = 1

    def _unfile(self, key: str, count: int) -> None:
        keys = self._by_count[count]
        del keys[key]
        if not keys:
            del self._by_count[count]
            if count == self._min:
                self._min = count + 1


def vendor_of(ua_key: str) -> str:
    """Vendor label of a ``vendor-version`` key (``"other"`` if not in scope)."""
    vendor = str(ua_key).rsplit("-", 1)[0].lower()
    return vendor if vendor in VENDOR_LABELS[:3] else "other"


@dataclass(frozen=True)
class CoverageConfig:
    """Tunables for the per-vendor unknown-rate bands."""

    #: Rolling window (observations per vendor) for the unknown rate.
    window: int = 2000
    #: Minimum windowed observations before a band verdict is trusted.
    min_observations: int = 200
    #: Steady-state unknown-rate ceiling outside adoption windows
    #: (stragglers, minor/mobile builds the table never carries).
    baseline_rate: float = 0.02
    #: Extra headroom while a vendor is inside an adoption window.
    adoption_allowance: float = 0.25
    #: Days after a calendar release during which its unknown traffic
    #: counts as adoption rather than attack.
    adoption_days: int = 7

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.min_observations < 1:
            raise ValueError("min_observations must be >= 1")
        if not 0.0 <= self.baseline_rate <= 1.0:
            raise ValueError("baseline_rate must lie in [0, 1]")
        if self.adoption_allowance < 0.0:
            raise ValueError("adoption_allowance must be >= 0")
        if self.adoption_days < 0:
            raise ValueError("adoption_days must be >= 0")


@dataclass(frozen=True)
class CoverageBand:
    """Expected unknown-rate band for one vendor on one day."""

    vendor: str
    low: float
    high: float
    #: Whether an adoption window (uncovered calendar release shipped
    #: within the last ``adoption_days``) widened the band.
    adopting: bool


class CoverageTracker:
    """Per-vendor unknown-UA rates against the live known-release table.

    Thread-safe: the runtime's callers and cluster shard transports
    feed ``observe``/``observe_many`` concurrently while ``/coverage``
    and ``/metrics`` read snapshots.
    """

    def __init__(
        self,
        calendar: Optional[ReleaseCalendar] = None,
        config: Optional[CoverageConfig] = None,
        clock: Optional[Callable[[], date]] = None,
    ) -> None:
        self.calendar = calendar if calendar is not None else default_calendar()
        self.config = config if config is not None else CoverageConfig()
        self._clock = clock
        self._lock = threading.Lock()
        self._known_keys: Set[str] = set()
        self._generation: Optional[int] = None
        self._windows: Dict[str, Deque[bool]] = {
            vendor: deque(maxlen=self.config.window) for vendor in VENDOR_LABELS
        }
        self._window_unknown: Dict[str, int] = {v: 0 for v in VENDOR_LABELS}
        self._observed: Dict[str, int] = {v: 0 for v in VENDOR_LABELS}
        self._unknown: Dict[str, int] = {v: 0 for v in VENDOR_LABELS}
        self._unknown_keys = _TopKeys(_TOP_UNKNOWN_KEYS)
        self._last_day: Optional[date] = None

    # -- known-release table ------------------------------------------

    def set_known_keys(
        self, keys: Iterable[str], generation: Optional[int] = None
    ) -> None:
        """Swap in the serving model's UA table (on load and each retrain)."""
        fresh = {str(k) for k in keys}
        with self._lock:
            self._known_keys = fresh
            if generation is not None:
                self._generation = int(generation)

    def is_known(self, ua_key: str) -> bool:
        """Whether a key is in the current serving table."""
        with self._lock:
            return str(ua_key) in self._known_keys

    @property
    def known_release_count(self) -> int:
        with self._lock:
            return len(self._known_keys)

    # -- observation feed ---------------------------------------------

    def observe(
        self,
        ua_key: str,
        known: Optional[bool] = None,
        day: Optional[date] = None,
    ) -> bool:
        """Record one scored session's claimed UA; returns its known-ness.

        ``known`` lets scoring paths that already resolved the verdict
        (``result.known_ua``) skip the set lookup; when omitted the key
        is classified against the current table.
        """
        key = str(ua_key)
        vendor = vendor_of(key)
        with self._lock:
            if known is None:
                known = key in self._known_keys
            self._record_locked(vendor, key, bool(known), day)
        return bool(known)

    def observe_many(
        self, ua_keys: Sequence[str], day: Optional[date] = None
    ) -> int:
        """Bulk feed (cluster transports, gauntlet); returns unknown count."""
        unknown = 0
        with self._lock:
            for ua_key in ua_keys:
                key = str(ua_key)
                known = key in self._known_keys
                if not known:
                    unknown += 1
                self._record_locked(vendor_of(key), key, known, day)
        return unknown

    def _record_locked(
        self, vendor: str, key: str, known: bool, day: Optional[date]
    ) -> None:
        window = self._windows[vendor]
        if len(window) == window.maxlen and window[0]:
            self._window_unknown[vendor] -= 1
        window.append(not known)
        if not known:
            self._window_unknown[vendor] += 1
            self._unknown[vendor] += 1
            self._unknown_keys.add(key)
        self._observed[vendor] += 1
        if day is not None:
            self._last_day = day

    # -- rates and bands ----------------------------------------------

    def unknown_rate(self, vendor: str) -> float:
        """Windowed unknown-UA rate for one vendor (0.0 when empty)."""
        with self._lock:
            n = len(self._windows[vendor])
            return self._window_unknown[vendor] / n if n else 0.0

    def expected_band(self, vendor: str, day: Optional[date] = None) -> CoverageBand:
        """The calendar-derived expected band for ``vendor`` on ``day``."""
        day = self._resolve_day(day)
        high = self.config.baseline_rate
        adopting = False
        if day is not None and vendor != "other":
            with self._lock:
                known = self._known_keys
                for release in self.calendar.all_releases():
                    if release.vendor.value != vendor:
                        continue
                    age = (day - release.released).days
                    if 0 <= age < self.config.adoption_days and release.key() not in known:
                        adopting = True
                        break
        if adopting:
            high += self.config.adoption_allowance
        return CoverageBand(vendor=vendor, low=0.0, high=high, adopting=adopting)

    def out_of_band(self, vendor: str, day: Optional[date] = None) -> bool:
        """Whether a vendor's unknown rate breached its expected band."""
        with self._lock:
            n = len(self._windows[vendor])
            warmup = min(self.config.min_observations, self.config.window)
            if n < warmup:
                return False
            rate = self._window_unknown[vendor] / n
        band = self.expected_band(vendor, day)
        return rate > band.high

    def _resolve_day(self, day: Optional[date]) -> Optional[date]:
        if day is not None:
            return day
        if self._clock is not None:
            return self._clock()
        return self._last_day

    # -- snapshots -----------------------------------------------------

    def status_dict(self, day: Optional[date] = None) -> Dict:
        """JSON-ready snapshot for ``GET /coverage`` and the CLI."""
        day = self._resolve_day(day)
        vendors = {}
        for vendor in VENDOR_LABELS:
            band = self.expected_band(vendor, day)
            with self._lock:
                n = len(self._windows[vendor])
                window_unknown = self._window_unknown[vendor]
                observed = self._observed[vendor]
                unknown = self._unknown[vendor]
            rate = window_unknown / n if n else 0.0
            warmup = min(self.config.min_observations, self.config.window)
            vendors[vendor] = {
                "observed": observed,
                "unknown": unknown,
                "window_observations": n,
                "window_unknown_rate": rate,
                "band_high": band.high,
                "adopting": band.adopting,
                "out_of_band": n >= warmup and rate > band.high,
            }
        with self._lock:
            top_unknown = [
                {"ua_key": key, "count": count}
                for key, count in self._unknown_keys.counts.most_common(5)
            ]
            known = len(self._known_keys)
            generation = self._generation
        return {
            "day": day.isoformat() if day is not None else None,
            "known_releases": known,
            "model_generation": generation,
            "vendors": vendors,
            "top_unknown": top_unknown,
        }

    def metrics_lines(self, day: Optional[date] = None) -> List[str]:
        """Prometheus-style ``polygraph_coverage_*`` lines."""
        status = self.status_dict(day)
        lines = [
            f"polygraph_coverage_known_releases {status['known_releases']}",
        ]
        if status["model_generation"] is not None:
            lines.append(
                f"polygraph_coverage_generation {status['model_generation']}"
            )
        for vendor in VENDOR_LABELS:
            stats = status["vendors"][vendor]
            label = f'{{vendor="{vendor}"}}'
            lines.append(
                f"polygraph_coverage_observed_total{label} {stats['observed']}"
            )
            lines.append(
                f"polygraph_coverage_unknown_total{label} {stats['unknown']}"
            )
            lines.append(
                f"polygraph_coverage_unknown_rate{label} "
                f"{stats['window_unknown_rate']:.6f}"
            )
            lines.append(
                f"polygraph_coverage_band_high{label} {stats['band_high']:.6f}"
            )
            lines.append(
                f"polygraph_coverage_out_of_band{label} "
                f"{1 if stats['out_of_band'] else 0}"
            )
        return lines
