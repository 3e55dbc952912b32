"""The trainable, persistable second-opinion model.

:class:`FusionModel` packages the whole second-opinion chain — node
graph, propagated scores, isotonic calibration — behind two calls:

* :meth:`FusionModel.train` builds it from a training window and the
  fitted cluster model (the node embeddings live in the *same* PCA
  space the cluster verdict uses, so both arms see one geometry);
* :meth:`FusionModel.second_opinion` scores one session at serve time:
  an exact node-key hit is a dict lookup (coarse fingerprints are
  low-cardinality, so steady-state traffic hits), a miss embeds the
  session and takes the nearest node's score.

Persistence mirrors ``repro.core.model_store``: one JSON document with
a sha256 content digest, plus a digest of the cluster model's
projection so a fusion model can never be served against a pipeline it
was not trained with (the projections would silently disagree).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from datetime import date
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.browsers.useragent import parse_user_agent
from repro.durable import UnreadableFileError, read_json, write_atomic
from repro.fusion.calibration import (
    IsotonicCalibrator,
    reliability_report,
    split_halves,
)
from repro.fusion.labels import WeakLabels, weak_labels
from repro.fusion.propagation import (
    NodeIndex,
    PropagationConfig,
    build_node_index,
    propagate,
    seed_scores,
    staleness_bucket,
)
from repro.fusion.staleness import staleness_days, staleness_for

__all__ = ["FusionModel", "SecondOpinion", "load_fusion_document"]

_FORMAT_VERSION = 1


@dataclass(frozen=True)
class SecondOpinion:
    """What the second-opinion arm says about one session."""

    raw: float  # propagated node score
    probability: float  # calibrated P(seed-tag)
    lift: float  # probability / base rate (0 when base is 0)
    matched_node: bool  # exact node-key hit vs nearest-neighbor
    staleness_days: float

    def to_dict(self) -> Dict:
        return {
            "raw": round(self.raw, 8),
            "probability": round(self.probability, 8),
            "lift": round(self.lift, 4),
            "matched_node": self.matched_node,
            "staleness_days": self.staleness_days,
        }


def _fingerprint_digest(values: Sequence[int]) -> str:
    """Stable digest of one coarse fingerprint (canonical int64 bytes)."""
    canonical = np.asarray(values, dtype=np.int64).tobytes()
    return hashlib.blake2b(canonical, digest_size=12).hexdigest()


def _pipeline_digest(cluster_model) -> str:
    """Digest of the projection the embeddings were computed in."""
    scaler = cluster_model.preprocessor.scaler
    hasher = hashlib.sha256()
    hasher.update(np.asarray(scaler.mean_, dtype=np.float64).tobytes())
    hasher.update(np.asarray(scaler.scale_, dtype=np.float64).tobytes())
    hasher.update(
        np.asarray(cluster_model.pca.components_, dtype=np.float64).tobytes()
    )
    hasher.update(
        np.asarray(cluster_model.pca.mean_, dtype=np.float64).tobytes()
    )
    return hasher.hexdigest()


def _content_digest(document: dict) -> str:
    payload = json.dumps(document, indent=2, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def load_fusion_document(path: Union[str, Path]) -> dict:
    """Read and digest-verify a saved fusion model document."""
    document = read_json(path, format_version=_FORMAT_VERSION, digest=_content_digest)
    if "sha256" not in document:
        raise UnreadableFileError(f"{path}: fusion model carries no content digest")
    return document


class FusionModel:
    """Second-opinion scorer: node graph + propagation + calibration."""

    def __init__(
        self,
        *,
        config: PropagationConfig,
        node_keys: Sequence[Tuple[str, int, int, int]],
        node_scores: np.ndarray,
        node_embeddings: np.ndarray,
        tag_scale_abs: float,
        calibrator: IsotonicCalibrator,
        reliability: Dict,
        iterations: int,
        converged: bool,
        trained_sessions: int,
        reference_day: date,
        pipeline_digest: str,
        cluster_model=None,
    ) -> None:
        self.config = config
        self.node_keys = [tuple(key) for key in node_keys]
        self.node_scores = np.asarray(node_scores, dtype=np.float64)
        self.node_embeddings = np.asarray(node_embeddings, dtype=np.float64)
        self.tag_scale_abs = float(tag_scale_abs)
        self.calibrator = calibrator
        self.reliability = reliability
        self.iterations = int(iterations)
        self.converged = bool(converged)
        self.trained_sessions = int(trained_sessions)
        self.reference_day = reference_day
        self.pipeline_digest = pipeline_digest
        self._node_of_key = {key: i for i, key in enumerate(self.node_keys)}
        # UA strings are low-cardinality on real traffic; parsing them
        # per request would dominate the second-opinion latency.
        self._ua_key_cache: Dict[str, str] = {}
        self._cluster_model = None
        if cluster_model is not None:
            self.bind(cluster_model)

    # ------------------------------------------------------------------
    # training

    @classmethod
    def train(
        cls,
        dataset,
        cluster_model,
        config: Optional[PropagationConfig] = None,
    ) -> "FusionModel":
        """Build the second opinion from a training window.

        The weak tags enter only through the sanctioned
        :func:`~repro.fusion.labels.weak_labels` accessor.  Even rows
        seed the propagation; odd rows are held out to fit and check
        the calibration, so the reliability report is honest.
        """
        config = config or PropagationConfig()
        labels: WeakLabels = weak_labels(dataset)
        matrix = dataset.matrix()
        projected = cluster_model.pca.transform(
            cluster_model.preprocessor.transform(matrix)
        )
        staleness = staleness_days(dataset.ua_keys, dataset.days)
        digests = [
            _fingerprint_digest(dataset.features[row])
            for row in range(len(dataset))
        ]
        index: NodeIndex = build_node_index(
            digests,
            projected,
            labels.untrusted_ip,
            labels.untrusted_cookie,
            staleness,
            config,
        )
        fit_mask, holdout_mask = split_halves(len(dataset))
        seeds, _ = seed_scores(index, labels.ato, config, member_mask=fit_mask)
        result = propagate(index.embeddings, seeds, config)

        raw_holdout = result.node_scores[index.node_of[holdout_mask]]
        outcomes_holdout = labels.ato[holdout_mask]
        calibrator = IsotonicCalibrator.fit(raw_holdout, outcomes_holdout)
        reliability = reliability_report(
            calibrator.transform(raw_holdout), outcomes_holdout
        )
        reference_day = (
            dataset.days.astype("datetime64[D]").max().astype(object)
            if len(dataset)
            else date(1970, 1, 1)
        )
        return cls(
            config=config,
            node_keys=index.keys,
            node_scores=result.node_scores,
            node_embeddings=index.embeddings,
            tag_scale_abs=index.tag_scale_abs,
            calibrator=calibrator,
            reliability=reliability,
            iterations=result.iterations,
            converged=result.converged,
            trained_sessions=len(dataset),
            reference_day=reference_day,
            pipeline_digest=_pipeline_digest(cluster_model),
            cluster_model=cluster_model,
        )

    # ------------------------------------------------------------------
    # binding to the cluster model's projection

    def bind(self, cluster_model) -> "FusionModel":
        """Attach the projection used for node-key-miss embedding."""
        if _pipeline_digest(cluster_model) != self.pipeline_digest:
            raise ValueError(
                "fusion model was trained against a different cluster "
                "model projection; retrain with `fuse train`"
            )
        self._cluster_model = cluster_model
        return self

    @property
    def n_nodes(self) -> int:
        return len(self.node_keys)

    @property
    def base_rate(self) -> float:
        return self.calibrator.base_rate

    # ------------------------------------------------------------------
    # scoring

    def second_opinion(
        self,
        values: Sequence[int],
        user_agent: str,
        day: Optional[date] = None,
        untrusted_ip: bool = False,
        untrusted_cookie: bool = False,
    ) -> SecondOpinion:
        """Score one session from its claimed surface + weak signals.

        The session's own ``ato`` tag is *not* an input: it is the
        training target, and consuming it at scoring time would be
        label leakage.  Missing tags degrade to ``False`` (trusted),
        which only ever lowers the score — the conservative direction.
        """
        if day is None:
            day = self.reference_day
        ua_key = self._ua_key_cache.get(user_agent)
        if ua_key is None:
            try:
                ua_key = parse_user_agent(user_agent).key()
            except (ValueError, KeyError):
                ua_key = ""
            if len(self._ua_key_cache) < 65536:
                self._ua_key_cache[user_agent] = ua_key
        staleness = staleness_for(ua_key, day) if ua_key else 0.0
        bucket = int(
            staleness_bucket(np.asarray([staleness]), self.config)[0]
        )
        key = (
            _fingerprint_digest(values),
            int(bool(untrusted_ip)),
            int(bool(untrusted_cookie)),
            bucket,
        )
        node = self._node_of_key.get(key)
        matched = node is not None
        if not matched:
            node = self._nearest_node(
                values, untrusted_ip, untrusted_cookie, bucket
            )
        raw = float(self.node_scores[node])
        probability = self.calibrator.transform_one(raw)
        lift = probability / self.base_rate if self.base_rate > 0 else 0.0
        return SecondOpinion(
            raw=raw,
            probability=probability,
            lift=lift,
            matched_node=matched,
            staleness_days=staleness,
        )

    def _nearest_node(
        self,
        values: Sequence[int],
        untrusted_ip: bool,
        untrusted_cookie: bool,
        bucket: int,
    ) -> int:
        if self._cluster_model is None:
            raise RuntimeError(
                "fusion model is not bound to a cluster model; call bind()"
            )
        matrix = np.asarray([values], dtype=np.float64)
        projection = self._cluster_model.pca.transform(
            self._cluster_model.preprocessor.transform(matrix)
        )[0]
        normalized_bucket = bucket / float(
            max(self.config.max_staleness_buckets, 1)
        )
        embedding = np.concatenate(
            [
                projection,
                np.asarray(
                    [
                        float(bool(untrusted_ip)),
                        float(bool(untrusted_cookie)),
                        normalized_bucket,
                    ]
                )
                * self.tag_scale_abs,
            ]
        )
        deltas = self.node_embeddings - embedding[None, :]
        return int(np.argmin(np.einsum("ij,ij->i", deltas, deltas)))

    def score_dataset(self, dataset, labels: Optional[WeakLabels] = None) -> Dict:
        """Vectorized second opinions over a dataset's rows.

        ``labels`` supplies the infrastructure tags (via the sanctioned
        accessor); omitted, all sessions score as trusted.  Returns
        columns ``raw`` / ``probability`` / ``lift`` / ``matched``.
        """
        n = len(dataset)
        if labels is None:
            ip = np.zeros(n, dtype=bool)
            cookie = np.zeros(n, dtype=bool)
        else:
            ip = labels.untrusted_ip
            cookie = labels.untrusted_cookie
        staleness = staleness_days(dataset.ua_keys, dataset.days)
        buckets = staleness_bucket(staleness, self.config)
        raw = np.empty(n, dtype=np.float64)
        matched = np.zeros(n, dtype=bool)
        misses = []
        for row in range(n):
            key = (
                _fingerprint_digest(dataset.features[row]),
                int(ip[row]),
                int(cookie[row]),
                int(buckets[row]),
            )
            node = self._node_of_key.get(key)
            if node is None:
                misses.append(row)
                continue
            matched[row] = True
            raw[row] = self.node_scores[node]
        for row in misses:
            node = self._nearest_node(
                dataset.features[row], bool(ip[row]), bool(cookie[row]),
                int(buckets[row]),
            )
            raw[row] = self.node_scores[node]
        probability = self.calibrator.transform(raw)
        if self.base_rate > 0:
            lift = probability / self.base_rate
        else:
            lift = np.zeros_like(probability)
        return {
            "raw": raw,
            "probability": probability,
            "lift": lift,
            "matched": matched,
        }

    # ------------------------------------------------------------------
    # persistence

    def status_dict(self) -> Dict:
        """Summary for ``fuse status`` and ``/metrics`` neighbors."""
        return {
            "nodes": self.n_nodes,
            "trained_sessions": self.trained_sessions,
            "iterations": self.iterations,
            "converged": self.converged,
            "base_rate": round(self.base_rate, 6),
            "reliability_ece": self.reliability.get("ece", 0.0),
            "reference_day": self.reference_day.isoformat(),
            "pipeline_digest": self.pipeline_digest[:12],
        }

    def save(self, path: Union[str, Path]) -> str:
        """Serialize to JSON; returns the recorded sha256 digest."""
        document = {
            "format_version": _FORMAT_VERSION,
            "config": asdict(self.config),
            "node_keys": [list(key) for key in self.node_keys],
            "node_scores": self.node_scores.tolist(),
            "node_embeddings": self.node_embeddings.tolist(),
            "tag_scale_abs": self.tag_scale_abs,
            "calibrator": self.calibrator.to_dict(),
            "reliability": self.reliability,
            "iterations": self.iterations,
            "converged": self.converged,
            "trained_sessions": self.trained_sessions,
            "reference_day": self.reference_day.isoformat(),
            "pipeline_digest": self.pipeline_digest,
        }
        document["sha256"] = _content_digest(document)
        write_atomic(path, json.dumps(document, indent=2) + "\n")
        return document["sha256"]

    @classmethod
    def load(
        cls, path: Union[str, Path], cluster_model=None
    ) -> "FusionModel":
        """Load a saved model; verifies digests before serving it."""
        document = load_fusion_document(path)
        return cls(
            config=PropagationConfig(**document["config"]),
            node_keys=[tuple(key) for key in document["node_keys"]],
            node_scores=np.asarray(document["node_scores"]),
            node_embeddings=np.asarray(document["node_embeddings"]),
            tag_scale_abs=document["tag_scale_abs"],
            calibrator=IsotonicCalibrator.from_dict(document["calibrator"]),
            reliability=document["reliability"],
            iterations=document["iterations"],
            converged=document["converged"],
            trained_sessions=document["trained_sessions"],
            reference_day=date.fromisoformat(document["reference_day"]),
            pipeline_digest=document["pipeline_digest"],
            cluster_model=cluster_model,
        )
