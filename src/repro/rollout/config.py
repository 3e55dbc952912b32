"""Configuration of the safe-rollout subsystem.

Two knobs-objects, deliberately separate:

* :class:`RolloutConfig` shapes the *ramp* — how much traffic the
  candidate shadows, and through which canary fractions real traffic
  walks toward it;
* :class:`GuardrailConfig` shapes the *abort conditions* — the limits
  a candidate must stay inside at every stage, or the manager rolls
  the fleet back to the prior model automatically.

Defaults follow the deployment story of the paper's Section 6.6 loop:
retrains are routine (every major browser release), so the ramp must be
cheap enough to run every time, and the guardrails tight enough that a
mis-trained model never reaches a majority of FinOrg traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["GuardrailConfig", "RolloutConfig", "RolloutError"]


class RolloutError(RuntimeError):
    """An invalid rollout operation (wrong state, incomplete stage)."""


@dataclass(frozen=True)
class RolloutConfig:
    """Shape of the shadow + canary ramp.

    Parameters
    ----------
    stages:
        Increasing canary fractions of real traffic served by the
        candidate; the ramp finishes with promotion to live after the
        last stage holds.
    shadow_sample_rate:
        Share of *live-arm* traffic mirrored to the candidate for
        disagreement accounting (off the latency-critical path).
    min_stage_verdicts:
        Candidate verdicts a canary stage must serve before it may
        advance (prevents promoting through an idle stage).

    The shadow scorer itself has no knobs: one thread, and at most
    :data:`~repro.rollout.shadow.MAX_PENDING_ROWS` mirrored rows
    pending; the rest are shed (shadowing must never apply
    backpressure to real traffic).
    """

    stages: Tuple[float, ...] = (0.01, 0.05, 0.25, 1.0)
    shadow_sample_rate: float = 0.25
    min_stage_verdicts: int = 500

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("stages must not be empty")
        previous = 0.0
        for fraction in self.stages:
            if not previous < fraction <= 1.0:
                raise ValueError(
                    "stages must be strictly increasing fractions in (0, 1], "
                    f"got {self.stages}"
                )
            previous = fraction
        if not 0.0 < self.shadow_sample_rate <= 1.0:
            raise ValueError("shadow_sample_rate must lie in (0, 1]")
        if self.min_stage_verdicts < 1:
            raise ValueError("min_stage_verdicts must be >= 1")


@dataclass(frozen=True)
class GuardrailConfig:
    """Limits evaluated at every stage; any breach triggers rollback.

    Parameters
    ----------
    max_disagreement_rate:
        Ceiling on the candidate-vs-live verdict-mismatch rate over the
        shadow comparisons.
    max_flag_rate_delta:
        Ceiling on ``|candidate flag rate - live flag rate|`` over the
        same comparisons — a candidate that silently flags (or clears)
        a few extra percent of traffic is exactly the mis-promotion
        this subsystem exists to stop.
    max_latency_p99_ms:
        Ceiling on the p99 of the candidate's batch scoring stage.
    min_comparisons:
        Disagreement guardrails stay quiet until this many shadow
        comparisons have accumulated (no verdicts, no verdict).
    """

    max_disagreement_rate: float = 0.02
    max_flag_rate_delta: float = 0.01
    max_latency_p99_ms: float = 250.0
    min_comparisons: int = 200

    def __post_init__(self) -> None:
        if not 0.0 <= self.max_disagreement_rate <= 1.0:
            raise ValueError("max_disagreement_rate must lie in [0, 1]")
        if not 0.0 <= self.max_flag_rate_delta <= 1.0:
            raise ValueError("max_flag_rate_delta must lie in [0, 1]")
        if self.max_latency_p99_ms <= 0:
            raise ValueError("max_latency_p99_ms must be positive")
        if self.min_comparisons < 1:
            raise ValueError("min_comparisons must be >= 1")
