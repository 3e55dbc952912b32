"""JSON persistence for trained Browser Polygraph models.

The deployable artifact is small — scaler moments, PCA components, 11
centroids, and the cluster table — so a single human-inspectable JSON
document stores everything the online detector needs.  (The Isolation
Forest is a training-time tool and is intentionally not persisted.)
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.core.clustering import ClusterModel
from repro.core.config import PipelineConfig
from repro.durable import read_json, write_atomic
from repro.ml.kmeans import KMeans
from repro.ml.pca import PCA
from repro.ml.scaler import StandardScaler

__all__ = ["load_model", "save_model", "stored_digest"]

_FORMAT_VERSION = 1


def _content_digest(document: dict) -> str:
    """sha256 over the canonical serialization of ``document``.

    The digest covers the exact ``json.dumps(..., indent=2)`` text the
    file stores (minus the ``sha256`` field itself), so any bit flip,
    truncation-and-repair, or hand edit of the persisted model changes
    the digest and :func:`load_model` fails loudly instead of serving
    verdicts from corrupt centroids.
    """
    payload = json.dumps(document, indent=2)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def stored_digest(path: Union[str, Path]) -> Optional[str]:
    """The sha256 digest recorded inside a saved model file."""
    return read_json(path).get("sha256")


def save_model(model: ClusterModel, path: Union[str, Path]) -> str:
    """Serialize a fitted :class:`ClusterModel` to JSON.

    Returns the sha256 content digest recorded in the file (callers
    such as the model registry store it independently, so a swapped
    file is detected even when it is internally self-consistent).
    """
    if model.kmeans is None or model.pca is None or model.preprocessor.scaler is None:
        raise ValueError("cannot save an unfitted ClusterModel")
    scaler = model.preprocessor.scaler
    document = {
        "format_version": _FORMAT_VERSION,
        "config": asdict(model.config),
        "scaler": {
            "columns": scaler.columns,
            "mean": scaler.mean_.tolist(),
            "scale": scaler.scale_.tolist(),
            "n_features": scaler.n_features_in_,
        },
        "pca": {
            "components": model.pca.components_.tolist(),
            "mean": model.pca.mean_.tolist(),
            "explained_variance_ratio": model.pca.explained_variance_ratio_.tolist(),
        },
        "kmeans": {
            "centers": model.kmeans.cluster_centers_.tolist(),
            "inertia": model.kmeans.inertia_,
        },
        "ua_to_cluster": dict(sorted(model.ua_to_cluster.items())),
        "accuracy": model.accuracy_,
        "n_outliers": model.n_outliers_,
        "aligned_uas": list(model.aligned_uas_),
        "feature_names": [spec.name for spec in model.specs],
    }
    digest = _content_digest(document)
    document["sha256"] = digest
    write_atomic(path, json.dumps(document, indent=2))
    return digest


def load_model(path: Union[str, Path]) -> ClusterModel:
    """Restore a :class:`ClusterModel` saved with :func:`save_model`.

    Raises :class:`~repro.durable.UnreadableFileError` (a
    ``ValueError``) when the file is torn, of another format, or its
    recorded sha256 digest does not match its content (truncated,
    bit-rotted, or hand-edited model files must never load).  Files
    written before digests existed (no ``sha256`` field) still load.
    """
    document = read_json(path, format_version=_FORMAT_VERSION, digest=_content_digest)
    config_fields = dict(document["config"])
    config = PipelineConfig(**config_fields)
    model = ClusterModel(config)

    scaler_doc = document["scaler"]
    scaler = StandardScaler(columns=scaler_doc["columns"])
    scaler.mean_ = np.asarray(scaler_doc["mean"], dtype=float)
    scaler.scale_ = np.asarray(scaler_doc["scale"], dtype=float)
    scaler.n_features_in_ = int(scaler_doc["n_features"])
    model.preprocessor.scaler = scaler

    pca = PCA(n_components=len(document["pca"]["components"]))
    pca.components_ = np.asarray(document["pca"]["components"], dtype=float)
    pca.mean_ = np.asarray(document["pca"]["mean"], dtype=float)
    pca.explained_variance_ratio_ = np.asarray(
        document["pca"]["explained_variance_ratio"], dtype=float
    )
    pca.explained_variance_ = pca.explained_variance_ratio_.copy()
    pca.n_features_in_ = scaler.n_features_in_
    model.pca = pca

    centers = np.asarray(document["kmeans"]["centers"], dtype=float)
    kmeans = KMeans(n_clusters=centers.shape[0])
    kmeans.cluster_centers_ = centers
    kmeans.inertia_ = document["kmeans"]["inertia"]
    model.kmeans = kmeans

    model.ua_to_cluster = {
        str(k): int(v) for k, v in document["ua_to_cluster"].items()
    }
    model.accuracy_ = document.get("accuracy")
    model.n_outliers_ = document.get("n_outliers")
    model.aligned_uas_ = list(document.get("aligned_uas", []))
    model._rebuild_table()
    return model
