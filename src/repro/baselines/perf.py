"""The Table 2 cost comparison.

Runs every tool — the three fine-grained simulators and Browser
Polygraph's own collection script — over the same browser profiles and
reports measured service time plus payload size.  Absolute milliseconds
depend on the host; the paper's *shape* (Polygraph fastest and smallest
by an order of magnitude, AmIUnique slowest and largest) follows from
the genuine work each collector performs.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean
from typing import List, Optional, Sequence

from repro.baselines.amiunique import AmIUniqueTool
from repro.baselines.clientjs import ClientJSTool
from repro.baselines.finegrained import FineGrainedTool
from repro.baselines.fingerprintjs import FingerprintJSTool
from repro.browsers.profiles import BrowserProfile
from repro.browsers.useragent import Vendor
from repro.fingerprint.script import CollectionScript

__all__ = ["ToolCost", "default_profiles", "measure_tools"]


@dataclass(frozen=True)
class ToolCost:
    """One Table 2 row: average service time and payload size."""

    tool: str
    avg_service_time_ms: float
    avg_payload_bytes: int


def default_profiles() -> List[BrowserProfile]:
    """The five visits the paper averages over (Section 3)."""
    return [
        BrowserProfile(Vendor.CHROME, 112),
        BrowserProfile(Vendor.CHROME, 114),
        BrowserProfile(Vendor.FIREFOX, 113),
        BrowserProfile(Vendor.EDGE, 112),
        BrowserProfile(Vendor.CHROME, 110),
    ]


def measure_tools(
    profiles: Optional[Sequence[BrowserProfile]] = None,
    tools: Optional[Sequence[FineGrainedTool]] = None,
    repeats: int = 5,
) -> List[ToolCost]:
    """Measure every tool over ``profiles``; returns Table 2 rows.

    Browser Polygraph's script is always measured last so the list
    mirrors the paper's table ordering (fine-grained tools first).
    """
    profiles = list(profiles) if profiles is not None else default_profiles()
    tools = (
        list(tools)
        if tools is not None
        else [AmIUniqueTool(), FingerprintJSTool(), ClientJSTool()]
    )
    results: List[ToolCost] = []
    for tool in tools:
        times, sizes = [], []
        for repeat in range(repeats):
            for idx, profile in enumerate(profiles):
                run = tool.run(profile, install_seed=repeat * 100 + idx)
                times.append(run.service_time_ms)
                sizes.append(run.payload_bytes())
        results.append(ToolCost(tool.name, mean(times), int(mean(sizes))))

    script = CollectionScript()
    times, sizes = [], []
    for repeat in range(repeats):
        for profile in profiles:
            payload = script.run(
                profile.environment(), profile.user_agent(), session_id="perf"
            )
            times.append(payload.service_time_ms)
            sizes.append(payload.size_bytes)
    results.append(ToolCost("Browser Polygraph", mean(times), int(mean(sizes))))
    return results
