"""Columnar dataset container.

Everything downstream — training, detection, drift, privacy analysis —
consumes data through this class.  Columns mirror what FinOrg shipped to
the authors (features, user-agent, opaque session id, tags) plus the
simulator's ground-truth columns, which models must never read (they are
for scoring only and carry a ``truth_`` prefix as a reminder).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.traffic.sessions import GroundTruth, Session, SessionKind

__all__ = ["Dataset"]


@dataclass
class Dataset:
    """A batch of sessions in structure-of-arrays form.

    Attributes
    ----------
    features:
        ``(n, n_features)`` int32 matrix in Table 8 column order.
    ua_keys:
        Canonical ``vendor-version`` labels per row.
    user_agents:
        Full user-agent strings per row.
    session_ids:
        Opaque ids.
    days:
        Session dates (``datetime64[D]``).
    untrusted_ip, untrusted_cookie, ato:
        FinOrg tag columns.
    truth_kind, truth_browser, truth_category, truth_perturbation:
        Ground truth (scoring only).
    timestamps:
        Optional absolute epoch-second instants (float64) of each
        session's first collection; ``None`` for datasets produced
        before the event-stream layer existed.
    """

    features: np.ndarray
    ua_keys: np.ndarray
    user_agents: np.ndarray
    session_ids: np.ndarray
    days: np.ndarray
    untrusted_ip: np.ndarray
    untrusted_cookie: np.ndarray
    ato: np.ndarray
    truth_kind: np.ndarray
    truth_browser: np.ndarray
    truth_category: np.ndarray
    truth_perturbation: np.ndarray
    feature_names: List[str] = field(default_factory=list)
    timestamps: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        n = self.features.shape[0]
        columns = (
            self.ua_keys, self.user_agents, self.session_ids, self.days,
            self.untrusted_ip, self.untrusted_cookie, self.ato,
            self.truth_kind, self.truth_browser, self.truth_category,
            self.truth_perturbation,
        )
        for column in columns:
            if column.shape[0] != n:
                raise ValueError("dataset columns are misaligned")
        if self.timestamps is not None and self.timestamps.shape[0] != n:
            raise ValueError("dataset columns are misaligned")

    # ------------------------------------------------------------------
    # views

    def __len__(self) -> int:
        return int(self.features.shape[0])

    @property
    def n_features(self) -> int:
        """Number of feature columns."""
        return int(self.features.shape[1])

    def matrix(self) -> np.ndarray:
        """Float view of the feature matrix (training input)."""
        return self.features.astype(float)

    def rows(self, start: int, stop: int) -> "Dataset":
        """Contiguous row range as a zero-copy view.

        Unlike :meth:`subset` (which fancy-indexes and therefore
        copies), slicing returns views over the parent's columns — the
        sliding-window path can trim a memory-mapped export without
        materializing it.
        """
        sl = slice(start, stop)
        return Dataset(
            features=self.features[sl],
            ua_keys=self.ua_keys[sl],
            user_agents=self.user_agents[sl],
            session_ids=self.session_ids[sl],
            days=self.days[sl],
            untrusted_ip=self.untrusted_ip[sl],
            untrusted_cookie=self.untrusted_cookie[sl],
            ato=self.ato[sl],
            truth_kind=self.truth_kind[sl],
            truth_browser=self.truth_browser[sl],
            truth_category=self.truth_category[sl],
            truth_perturbation=self.truth_perturbation[sl],
            feature_names=list(self.feature_names),
            timestamps=(
                None if self.timestamps is None else self.timestamps[sl]
            ),
        )

    def subset(self, mask: np.ndarray) -> "Dataset":
        """Row subset selected by a boolean mask or index array."""
        return Dataset(
            features=self.features[mask],
            ua_keys=self.ua_keys[mask],
            user_agents=self.user_agents[mask],
            session_ids=self.session_ids[mask],
            days=self.days[mask],
            untrusted_ip=self.untrusted_ip[mask],
            untrusted_cookie=self.untrusted_cookie[mask],
            ato=self.ato[mask],
            truth_kind=self.truth_kind[mask],
            truth_browser=self.truth_browser[mask],
            truth_category=self.truth_category[mask],
            truth_perturbation=self.truth_perturbation[mask],
            feature_names=list(self.feature_names),
            timestamps=(
                None if self.timestamps is None else self.timestamps[mask]
            ),
        )

    def is_fraud(self) -> np.ndarray:
        """Ground-truth fraud mask (scoring only)."""
        return self.truth_kind == SessionKind.FRAUD.value

    def is_detectable_fraud(self) -> np.ndarray:
        """Ground-truth Category-1/2 fraud mask (scoring only)."""
        return self.is_fraud() & np.isin(self.truth_category, (1, 2))

    def distinct_releases(self) -> List[str]:
        """Sorted distinct ``vendor-version`` labels present."""
        return sorted(set(self.ua_keys.tolist()))

    def sessions(self) -> Iterator[Session]:
        """Iterate rows as :class:`Session` objects (small batches only)."""
        for idx in range(len(self)):
            yield self.row(idx)

    def row(self, idx: int) -> Session:
        """Materialize one row as a :class:`Session`."""
        truth = GroundTruth(
            kind=SessionKind(self.truth_kind[idx]),
            browser=str(self.truth_browser[idx]),
            category=int(self.truth_category[idx]),
            perturbation=str(self.truth_perturbation[idx]),
        )
        return Session(
            session_id=str(self.session_ids[idx]),
            day=self.days[idx].astype("datetime64[D]").astype(object),
            user_agent=str(self.user_agents[idx]),
            features=tuple(int(v) for v in self.features[idx]),
            untrusted_ip=bool(self.untrusted_ip[idx]),
            untrusted_cookie=bool(self.untrusted_cookie[idx]),
            ato=bool(self.ato[idx]),
            truth=truth,
            timestamp=(
                0.0 if self.timestamps is None else float(self.timestamps[idx])
            ),
        )

    # ------------------------------------------------------------------
    # assembly / persistence

    @classmethod
    def concatenate(cls, parts: Sequence["Dataset"]) -> "Dataset":
        """Stack several datasets (column orders must agree)."""
        if not parts:
            raise ValueError("nothing to concatenate")
        names = parts[0].feature_names
        for part in parts[1:]:
            if part.feature_names != names:
                raise ValueError("feature column orders differ")
        if len(parts) == 1:
            # Zero-copy fast path: a single part (e.g. a store exported
            # from one memory-mapped columnar segment) passes through
            # without touching any column bytes.
            return parts[0]
        timestamps = None
        if all(p.timestamps is not None for p in parts):
            timestamps = np.concatenate([p.timestamps for p in parts])
        return cls(
            features=np.concatenate([p.features for p in parts]),
            ua_keys=np.concatenate([p.ua_keys for p in parts]),
            user_agents=np.concatenate([p.user_agents for p in parts]),
            session_ids=np.concatenate([p.session_ids for p in parts]),
            days=np.concatenate([p.days for p in parts]),
            untrusted_ip=np.concatenate([p.untrusted_ip for p in parts]),
            untrusted_cookie=np.concatenate([p.untrusted_cookie for p in parts]),
            ato=np.concatenate([p.ato for p in parts]),
            truth_kind=np.concatenate([p.truth_kind for p in parts]),
            truth_browser=np.concatenate([p.truth_browser for p in parts]),
            truth_category=np.concatenate([p.truth_category for p in parts]),
            truth_perturbation=np.concatenate([p.truth_perturbation for p in parts]),
            feature_names=list(names),
            timestamps=timestamps,
        )

    def save(self, path: str) -> None:
        """Persist to a ``.npz`` archive."""
        columns = dict(
            features=self.features,
            ua_keys=self.ua_keys.astype("U"),
            user_agents=self.user_agents.astype("U"),
            session_ids=self.session_ids.astype("U"),
            days=self.days.astype("datetime64[D]").astype("int64"),
            untrusted_ip=self.untrusted_ip,
            untrusted_cookie=self.untrusted_cookie,
            ato=self.ato,
            truth_kind=self.truth_kind.astype("U"),
            truth_browser=self.truth_browser.astype("U"),
            truth_category=self.truth_category,
            truth_perturbation=self.truth_perturbation.astype("U"),
            feature_names=np.array(self.feature_names, dtype="U"),
        )
        if self.timestamps is not None:
            columns["timestamps"] = self.timestamps.astype(np.float64)
        np.savez_compressed(path, **columns)

    @classmethod
    def load(cls, path: str) -> "Dataset":
        """Load a dataset saved with :meth:`save`."""
        with np.load(path, allow_pickle=False) as archive:
            return cls(
                features=archive["features"],
                ua_keys=archive["ua_keys"].astype(object),
                user_agents=archive["user_agents"].astype(object),
                session_ids=archive["session_ids"].astype(object),
                days=archive["days"].astype("datetime64[D]"),
                untrusted_ip=archive["untrusted_ip"],
                untrusted_cookie=archive["untrusted_cookie"],
                ato=archive["ato"],
                truth_kind=archive["truth_kind"].astype(object),
                truth_browser=archive["truth_browser"].astype(object),
                truth_category=archive["truth_category"],
                truth_perturbation=archive["truth_perturbation"].astype(object),
                feature_names=[str(n) for n in archive["feature_names"]],
                timestamps=(
                    archive["timestamps"]
                    if "timestamps" in archive.files
                    else None
                ),
            )
