"""Online fraud detection (Section 6.5).

For every incoming session the detector:

1. predicts the cluster of the session's coarse-grained fingerprint;
2. looks up the cluster its claimed user-agent *should* be in
   (paper Table 3);
3. flags the session when the two disagree, attaching Algorithm 1's
   risk factor computed against the predicted cluster's user-agents.

Sessions whose user-agent is outside the trained table are out of scope
for the paper (mobile browsers, exotic engines); the
``unknown_ua_policy`` config decides whether they are ignored (default),
flagged, or scored against the nearest known release of the same vendor
and engine (``"infer"`` — the interim coverage mode that bridges the
blind window between a release shipping and the next retrain).

The decision is a pure function of ``(detector, claimed UA, predicted
cluster)``, and a detector belongs to one model generation (every
install builds a new one), so each detector answers from a **decision
table** filled on first use.  Only keys in the trained table enter it,
which bounds it at known keys × k.  Every other key — unknown releases,
forged versions, unparseable keys, raw ``Mozilla/...`` strings — is
attacker-chosen, so its decisions live in a side memo cleared whole at
:data:`_SIDE_MEMO_LIMIT`.  The serve path's model call is therefore the
projection plus a dict read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.browsers.releases import engine_for_vendor
from repro.browsers.useragent import (
    ParsedUserAgent,
    UserAgentError,
    parse_ua_key,
    parse_user_agent,
)
from repro.core.clustering import ClusterModel
from repro.core.risk import risk_factor
from repro.traffic.dataset import Dataset

__all__ = ["DetectionReport", "DetectionResult", "FraudDetector"]

# Side-memo bound for decisions on keys outside the trained table;
# cleared whole at the limit, like ``WireIngest``'s memos.
_SIDE_MEMO_LIMIT = 8192


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of evaluating one session.

    Under ``unknown_ua_policy="infer"`` an unknown release is scored
    against the nearest known release of the same vendor *and* engine;
    ``inferred_release`` / ``inferred_distance`` record that mapping so
    downstream consumers (the risk engine, the coverage tracker) can
    tell an exact table hit from an interim nearest-release verdict.
    """

    ua_key: str
    predicted_cluster: int
    expected_cluster: Optional[int]
    flagged: bool
    risk_factor: Optional[int]
    inferred_release: Optional[str] = None
    inferred_distance: Optional[int] = None

    @property
    def known_ua(self) -> bool:
        """Whether the claimed user-agent exists in the trained table.

        An inferred verdict scored against a *neighbouring* release is
        still an unknown user-agent: the expected cluster is borrowed,
        not looked up.
        """
        return self.expected_cluster is not None and self.inferred_release is None


@dataclass
class DetectionReport:
    """Vectorized outcome over a dataset."""

    ua_keys: np.ndarray
    predicted: np.ndarray
    expected: np.ndarray  # -1 where the user-agent is unknown
    flagged: np.ndarray
    risk_factors: np.ndarray  # -1 where not flagged

    def __len__(self) -> int:
        return int(self.flagged.shape[0])

    @property
    def n_flagged(self) -> int:
        """Number of flagged sessions."""
        return int(self.flagged.sum())

    @property
    def n_unknown_ua(self) -> int:
        """Sessions whose user-agent is outside the trained table."""
        return int((self.expected < 0).sum())

    def flagged_indices(self) -> np.ndarray:
        """Row indices of flagged sessions."""
        return np.nonzero(self.flagged)[0]

    def risk_over(self, threshold: int) -> np.ndarray:
        """Mask of flagged sessions with ``risk_factor > threshold``."""
        return self.flagged & (self.risk_factors > threshold)


class FraudDetector:
    """Applies a trained :class:`ClusterModel` to live sessions."""

    def __init__(self, model: ClusterModel) -> None:
        if model.kmeans is None:
            raise ValueError("FraudDetector requires a fitted ClusterModel")
        self.model = model
        self.config = model.config
        # Pre-parse each cluster's user-agents once: Algorithm 1 runs per
        # session and must stay cheap.
        self._cluster_parsed: Dict[int, List[ParsedUserAgent]] = {
            cluster: [parse_ua_key(k) for k in keys]
            for cluster, keys in model.cluster_table.items()
        }
        # Known releases grouped by (vendor, engine), version-sorted —
        # the lookup table for ``unknown_ua_policy="infer"``.  Grouping
        # by engine keeps inference honest across engine transitions:
        # an unknown edge-78 (EdgeHTML) must map to the nearest legacy
        # Edge release, never to the numerically adjacent Chromium
        # edge-79.
        self._known_releases: Dict[Tuple, List[Tuple[int, str]]] = {}
        for key in model.ua_to_cluster:
            try:
                parsed = parse_ua_key(key)
            except UserAgentError:
                continue
            group = (parsed.vendor, engine_for_vendor(parsed.vendor, parsed.version))
            self._known_releases.setdefault(group, []).append(
                (parsed.version, key)
            )
        for versions in self._known_releases.values():
            versions.sort()
        # (user_agent, cluster) -> decision: the table for known keys,
        # the bounded side memo for every other key.
        self._table: Dict[Tuple[str, int], DetectionResult] = {}
        self._side: Dict[Tuple[str, int], DetectionResult] = {}

    # ------------------------------------------------------------------

    def evaluate_vector(self, vector: np.ndarray, user_agent: str) -> DetectionResult:
        """Evaluate one session from its raw feature vector and UA."""
        predicted = self.model.predict_cluster(np.asarray(vector))
        return self.decision(user_agent, predicted)

    def evaluate_vectors(
        self, matrix: np.ndarray, user_agents: Sequence[str]
    ) -> List[DetectionResult]:
        """Evaluate many sessions in one vectorized model call.

        ``matrix`` is an ``(n, n_features)`` array of raw feature rows
        and ``user_agents`` the matching claimed user-agents (full
        ``Mozilla/...`` strings or ``vendor-version`` keys).  The model
        chain runs once on the whole matrix; each row's decision is a
        read of the detector's decision table (see :meth:`decision`).

        Row ``i`` of the return value is identical to
        ``evaluate_vector(matrix[i], user_agents[i])``.
        """
        data = np.asarray(matrix, dtype=float)
        if data.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {data.shape}")
        if data.shape[0] != len(user_agents):
            raise ValueError("matrix rows and user_agents must align")
        predicted = self.model.predict_clusters(data).tolist()
        return [self.decision(ua, c) for ua, c in zip(user_agents, predicted)]

    def evaluate_dataset(self, dataset: Dataset) -> DetectionReport:
        """Evaluate every session of a dataset (vectorized prediction).

        Decisions come from the detector's decision table, so 205k rows
        cost a few hundred Algorithm 1 evaluations over its lifetime.
        """
        predicted = self.model.predict_clusters(dataset.matrix())
        results = [
            self.decision(ua, c)
            for ua, c in zip(dataset.ua_keys.tolist(), predicted.tolist())
        ]
        n = len(results)
        expected = np.full(n, -1, dtype=np.int64)
        flagged = np.zeros(n, dtype=bool)
        risks = np.full(n, -1, dtype=np.int64)
        for idx, result in enumerate(results):
            if result.expected_cluster is not None:
                expected[idx] = result.expected_cluster
            flagged[idx] = result.flagged
            if result.risk_factor is not None:
                risks[idx] = result.risk_factor
        return DetectionReport(
            ua_keys=dataset.ua_keys.copy(),
            predicted=predicted.astype(np.int64),
            expected=expected,
            flagged=flagged,
            risk_factors=risks,
        )

    def decision(self, user_agent: str, cluster: int) -> DetectionResult:
        """The verdict for ``user_agent`` claimed from ``cluster``.

        Equal to deciding from scratch — parse the claimed user-agent,
        then Algorithm 1 against the predicted cluster — but computed
        once per ``(user_agent, cluster)`` for this detector's lifetime
        (keys outside the trained table: until the side memo fills).
        """
        key = (user_agent, cluster)
        result = self._table.get(key)
        if result is None:
            result = self._side.get(key)
            if result is None:
                result = self._fill(user_agent, cluster)
        return result

    def _fill(self, user_agent: str, cluster: int) -> DetectionResult:
        user_agent = str(user_agent)
        result = self._decide(self._parse(user_agent), cluster)
        if user_agent in self.model.ua_to_cluster:
            self._table[user_agent, cluster] = result
        else:
            side = self._side
            if len(side) >= _SIDE_MEMO_LIMIT:
                side.clear()
            side[user_agent, cluster] = result
        return result

    # ------------------------------------------------------------------

    def _parse(self, user_agent: str) -> Optional[ParsedUserAgent]:
        try:
            if user_agent.startswith("Mozilla/"):
                return parse_user_agent(user_agent)
            return parse_ua_key(user_agent)
        except UserAgentError:
            return None

    def _decide(
        self, parsed: Optional[ParsedUserAgent], predicted: int
    ) -> DetectionResult:
        if parsed is None:
            return self._unknown("<unparseable>", predicted)
        return self._decide_key(parsed.key(), predicted)

    def _decide_key(self, ua_key: str, predicted: int) -> DetectionResult:
        expected = self.model.expected_cluster(ua_key)
        if expected is None:
            return self._unknown(ua_key, predicted)
        if predicted == expected:
            return DetectionResult(ua_key, predicted, expected, False, None)
        risk = risk_factor(
            ua_key,
            self._cluster_parsed.get(predicted, ()),
            vendor_mismatch=self.config.vendor_mismatch_risk,
            version_divisor=self.config.version_divisor,
        )
        return DetectionResult(ua_key, predicted, expected, True, risk)

    def _unknown(self, ua_key: str, predicted: int) -> DetectionResult:
        policy = self.config.unknown_ua_policy
        if policy == "infer":
            inferred = self._infer(ua_key, predicted)
            if inferred is not None:
                return inferred
            # Unparseable key, or no same-vendor/engine release in the
            # table to borrow from: fall back to the ignore behaviour
            # (an interim guess with nothing to anchor it would be a
            # blanket flag in disguise).
            return DetectionResult(ua_key, predicted, None, False, None)
        if policy == "flag":
            risk = risk_factor(
                ua_key,
                self._cluster_parsed.get(predicted, ()),
                vendor_mismatch=self.config.vendor_mismatch_risk,
                version_divisor=self.config.version_divisor,
            ) if _parseable(ua_key) else self.config.vendor_mismatch_risk
            return DetectionResult(ua_key, predicted, None, True, risk)
        return DetectionResult(ua_key, predicted, None, False, None)

    def _infer(self, ua_key: str, predicted: int) -> Optional[DetectionResult]:
        """Score an unknown release against its nearest known neighbour.

        The neighbour is the known release of the same vendor *and*
        engine with the smallest version distance (ties break toward
        the older release — the conservative anchor).  The verdict is
        the ordinary cluster-mismatch decision against the neighbour's
        expected cluster, with provenance attached.
        """
        try:
            parsed = parse_ua_key(ua_key)
        except UserAgentError:
            return None
        group = (parsed.vendor, engine_for_vendor(parsed.vendor, parsed.version))
        candidates = self._known_releases.get(group)
        if not candidates:
            return None
        version, nearest = min(
            candidates, key=lambda entry: (abs(entry[0] - parsed.version), entry[0])
        )
        expected = self.model.expected_cluster(nearest)
        if expected is None:  # pragma: no cover - table/index mismatch guard
            return None
        distance = abs(version - parsed.version)
        if predicted == expected:
            return DetectionResult(
                ua_key, predicted, expected, False, None,
                inferred_release=nearest, inferred_distance=distance,
            )
        risk = risk_factor(
            ua_key,
            self._cluster_parsed.get(predicted, ()),
            vendor_mismatch=self.config.vendor_mismatch_risk,
            version_divisor=self.config.version_divisor,
        )
        return DetectionResult(
            ua_key, predicted, expected, True, risk,
            inferred_release=nearest, inferred_distance=distance,
        )


def _parseable(ua_key: str) -> bool:
    try:
        parse_ua_key(ua_key)
        return True
    except UserAgentError:
        return False
