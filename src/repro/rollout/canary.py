"""Canary traffic assignment and guardrail evaluation.

Assignment is *sticky and deterministic*: a session id hashes (with the
rollout's persisted salt) to a bucket in ``[0, 1)``, and the candidate
serves the sessions whose bucket falls below the current stage
fraction.  Because stages only grow, a session assigned to the
candidate at 1% is still on the candidate at 25% — users never flap
between models mid-rollout — and because the salt survives restarts,
the split is bit-identical after a crash.

The shadow sample is carved from the *top* of the same bucket space
(``[1 - sample_rate, 1)``), so it covers only live-arm sessions and
costs one hash per request, shared with canary assignment.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import asdict, dataclass
from typing import Optional

from repro.rollout.config import GuardrailConfig, RolloutConfig
from repro.rollout.shadow import DisagreementReport
from repro.rollout.state import CANARY, SHADOW, RolloutState
from repro.runtime.stats import RuntimeStats

__all__ = ["CanaryController", "GuardrailBreach", "session_bucket"]

_BUCKET_SCALE = float(2**64)


def session_bucket(salt: str, session_id: str) -> float:
    """Deterministic hash of a session id into ``[0, 1)``.

    A JSON-escaped lone surrogate is a valid id on the wire, so it is
    hashed as it stands rather than refused by the UTF-8 codec."""
    digest = hashlib.sha256(
        f"{salt}:{session_id}".encode("utf-8", "surrogatepass")
    ).digest()
    return int.from_bytes(digest[:8], "big") / _BUCKET_SCALE


@dataclass(frozen=True)
class GuardrailBreach:
    """One guardrail the candidate failed (grounds for rollback)."""

    name: str
    observed: float
    limit: float
    detail: str

    def to_dict(self) -> dict:
        return asdict(self)


class CanaryController:
    """Routes sessions between arms and judges the candidate.

    Owns the per-stage bookkeeping (candidate verdicts served this
    stage) and the guardrail verdict; the manager owns the transitions.
    """

    def __init__(
        self,
        state: RolloutState,
        config: RolloutConfig,
        guardrails: GuardrailConfig,
        report: DisagreementReport,
        stats: Optional[RuntimeStats] = None,
    ) -> None:
        self.state = state
        self.config = config
        self.guardrails = guardrails
        self.report = report
        self.stats = stats
        self._lock = threading.Lock()
        self._stage_verdicts = 0

    # ------------------------------------------------------------------
    # routing

    def route(self, session_id: str) -> tuple:
        """``(candidate, mirror)`` for one session.

        ``candidate`` — serve this session from the candidate model;
        ``mirror`` — it stays on live, and its verdict should be
        mirrored to the shadow scorer.
        """
        state = self.state
        if not state.in_flight:
            return False, False
        bucket = session_bucket(state.salt, session_id)
        candidate = bucket < state.stage_fraction
        mirror = (not candidate) and bucket >= 1.0 - state.shadow_sample_rate
        return candidate, mirror

    # ------------------------------------------------------------------
    # stage bookkeeping

    def note_candidate_verdicts(self, n: int) -> None:
        """Count candidate verdicts served in the current stage."""
        with self._lock:
            self._stage_verdicts += int(n)

    @property
    def stage_verdicts(self) -> int:
        with self._lock:
            return self._stage_verdicts

    def reset_stage(self) -> None:
        """Zero the per-stage counters (called on each transition)."""
        with self._lock:
            self._stage_verdicts = 0

    def stage_complete(self) -> bool:
        """Whether the current stage has seen enough evidence to advance."""
        state = self.state
        if state.status == SHADOW:
            return self.report.comparisons >= self.guardrails.min_comparisons
        if state.status == CANARY:
            return self.stage_verdicts >= self.config.min_stage_verdicts
        return False

    # ------------------------------------------------------------------
    # guardrails

    def evaluate(self) -> Optional[GuardrailBreach]:
        """The guardrail verdict right now (``None`` means healthy)."""
        g = self.guardrails
        report = self.report
        if report.comparisons >= g.min_comparisons:
            rate = report.disagreement_rate
            if rate > g.max_disagreement_rate:
                return GuardrailBreach(
                    name="disagreement_rate",
                    observed=rate,
                    limit=g.max_disagreement_rate,
                    detail=(
                        f"{report.mismatches}/{report.comparisons} shadow "
                        f"comparisons disagreed"
                    ),
                )
            delta = report.flag_rate_delta
            if abs(delta) > g.max_flag_rate_delta:
                return GuardrailBreach(
                    name="flag_rate_delta",
                    observed=delta,
                    limit=g.max_flag_rate_delta,
                    detail=(
                        f"candidate flag rate {report.candidate_flag_rate:.4f} "
                        f"vs live {report.live_flag_rate:.4f}"
                    ),
                )
        if self.stats is not None:
            p99 = self.stats.stage_percentile("candidate_model", 99)
            if p99 > g.max_latency_p99_ms:
                return GuardrailBreach(
                    name="latency_p99_ms",
                    observed=p99,
                    limit=g.max_latency_p99_ms,
                    detail="candidate batch-scoring p99 over budget",
                )
        return None
