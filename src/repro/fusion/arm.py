"""The serving-side fusion arm: scoring, counters, auto-disable.

:class:`FusionArm` is what a scoring service attaches.  Per session it
computes the second opinion, runs the policy, updates the agreement
counters, and evaluates the guardrails; any breach disables the arm
*stickily* — subsequent sessions get cluster-only verdicts (the
additive-only contract makes that a bit-for-bit rollback), while the
breach stays visible in ``/metrics`` and the status document.

The arm also watches the pipeline's model generation: a retrain swaps
the projection the node embeddings were computed in, so the arm
disables itself with ``model_generation_changed`` instead of serving
scores from a stale geometry.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from datetime import date
from typing import Dict, Optional, Sequence, Tuple

from repro.fusion.model import FusionModel, SecondOpinion
from repro.fusion.policy import (
    AgreementCell,
    FusedVerdict,
    FusionGuardrailConfig,
    FusionPolicy,
)

__all__ = ["FusionArm"]

_LATENCY_WINDOW = 512


class FusionArm:
    """Guardrailed second-opinion scoring for a serving path."""

    def __init__(
        self,
        model: FusionModel,
        policy: Optional[FusionPolicy] = None,
        guardrails: Optional[FusionGuardrailConfig] = None,
    ) -> None:
        self.model = model
        self.policy = policy or FusionPolicy()
        self.guardrails = guardrails or FusionGuardrailConfig()
        self._lock = threading.Lock()
        self.verdicts = 0
        self.second_flagged = 0
        self.fused_flagged = 0
        self.cluster_flagged = 0
        self.cell_counts: Dict[str, int] = {
            cell.value: 0 for cell in AgreementCell
        }
        self.disabled = False
        self.disable_reason: Optional[str] = None
        self.breach: Optional[Dict] = None
        self._latencies_ms: deque = deque(maxlen=_LATENCY_WINDOW)

    # ------------------------------------------------------------------

    def bind_pipeline(self, polygraph) -> "FusionArm":
        """Auto-disable when the cluster model generation changes."""
        self.model.bind(polygraph.cluster_model)

        def _on_swap(_generation: int) -> None:
            self.disable("model_generation_changed")

        polygraph.add_retrain_listener(_on_swap)
        return self

    def disable(self, reason: str, breach: Optional[Dict] = None) -> None:
        """Sticky rollback to cluster-only verdicts."""
        with self._lock:
            if self.disabled:
                return
            self.disabled = True
            self.disable_reason = reason
            self.breach = breach

    @property
    def enabled(self) -> bool:
        return not self.disabled

    # ------------------------------------------------------------------

    def consider(
        self,
        values: Sequence[int],
        user_agent: str,
        cluster_flagged: bool,
        day: Optional[date] = None,
        tags: Optional[Tuple[bool, bool]] = None,
    ) -> Optional[Tuple[SecondOpinion, FusedVerdict]]:
        """Score one session; ``None`` when the arm is disabled.

        ``tags`` is the risk engine's ``(untrusted_ip,
        untrusted_cookie)`` pair when it has one; absent tags score as
        trusted, which only lowers the second opinion.
        """
        if self.disabled:
            return None
        started = time.perf_counter()
        untrusted_ip, untrusted_cookie = tags if tags is not None else (
            False,
            False,
        )
        opinion = self.model.second_opinion(
            values,
            user_agent,
            day=day,
            untrusted_ip=untrusted_ip,
            untrusted_cookie=untrusted_cookie,
        )
        fused = self.policy.decide(cluster_flagged, opinion)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        with self._lock:
            self.verdicts += 1
            self.cell_counts[fused.cell.value] += 1
            if fused.second_flagged:
                self.second_flagged += 1
            if fused.fused_flagged:
                self.fused_flagged += 1
            if cluster_flagged:
                self.cluster_flagged += 1
            self._latencies_ms.append(elapsed_ms)
            breach = self._check_guardrails_locked()
        if breach is not None:
            self.disable(breach["name"], breach)
        return opinion, fused

    def _check_guardrails_locked(self) -> Optional[Dict]:
        limits = self.guardrails
        if self.verdicts < limits.min_verdicts:
            return None
        second_rate = self.second_flagged / self.verdicts
        if second_rate > limits.max_second_flag_rate:
            return {
                "name": "second_flag_rate",
                "value": round(second_rate, 6),
                "limit": limits.max_second_flag_rate,
            }
        delta = (self.fused_flagged - self.cluster_flagged) / self.verdicts
        if delta > limits.max_fused_flag_rate_delta:
            return {
                "name": "fused_flag_rate_delta",
                "value": round(delta, 6),
                "limit": limits.max_fused_flag_rate_delta,
            }
        if self._latencies_ms:
            mean_ms = sum(self._latencies_ms) / len(self._latencies_ms)
            if mean_ms > limits.max_mean_latency_ms:
                return {
                    "name": "second_opinion_latency",
                    "value": round(mean_ms, 3),
                    "limit": limits.max_mean_latency_ms,
                }
        return None

    # ------------------------------------------------------------------
    # introspection

    def status_dict(self) -> Dict:
        with self._lock:
            return {
                "enabled": not self.disabled,
                "disable_reason": self.disable_reason,
                "breach": self.breach,
                "verdicts": self.verdicts,
                "second_flagged": self.second_flagged,
                "fused_flagged": self.fused_flagged,
                "cluster_flagged": self.cluster_flagged,
                "cells": dict(self.cell_counts),
                "model": self.model.status_dict(),
            }

    def collect(self, out) -> None:
        """Report the arm's ``polygraph_fusion_*`` series into ``out``."""
        with self._lock:
            out.gauge("polygraph_fusion_enabled", 0 if self.disabled else 1)
            out.counter("polygraph_fusion_verdicts_total", self.verdicts)
            out.counter("polygraph_fusion_second_flagged_total", self.second_flagged)
            out.counter("polygraph_fusion_fused_flagged_total", self.fused_flagged)
            for cell, count in sorted(self.cell_counts.items()):
                out.counter("polygraph_fusion_cell_total", count, cell=cell)
            if self.disable_reason is not None:
                out.gauge(
                    "polygraph_fusion_disabled_info", 1, reason=self.disable_reason
                )
