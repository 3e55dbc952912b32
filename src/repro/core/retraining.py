"""Automated retraining orchestration (closing the Section 6.6 loop).

The paper's drift detector *signals* retraining; someone still has to
do it: assemble the new training window, refit, verify the refreshed
model actually absorbs the drifted releases, and keep the previous
model around in case the new one regresses.  :class:`RetrainingOrchestrator`
automates that operational loop:

* maintains a sliding training window (the paper trained on 4.5 months);
* on each scheduled check, evaluates drift and — when triggered —
  retrains on the extended window;
* verifies the candidate model before promotion: training accuracy must
  stay above a floor and the drifted releases must now sit in the
  cluster table;
* archives every promoted model with metadata (a one-file model
  registry), so a bad promotion can be rolled back.

With a rollout manager attached (``repro.rollout``), verification no
longer promotes directly: the candidate is *staged* in the registry and
handed to the manager, which walks it through shadow and canary before
it becomes live — or rolls it back without the orchestrator's window
ever adopting it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import List, Optional, Union

from repro.core.model_store import stored_digest
from repro.core.pipeline import BrowserPolygraph
from repro.durable import UnreadableFileError, read_json, write_atomic
from repro.traffic.dataset import Dataset

__all__ = [
    "ModelRegistry",
    "RetrainingOrchestrator",
    "RetrainingOutcome",
]

# Registry entry statuses.  Entries written before statuses existed are
# treated as live (they were promoted directly).
STATUS_LIVE = "live"
STATUS_CANDIDATE = "candidate"
STATUS_ROLLED_BACK = "rolled_back"


@dataclass(frozen=True)
class RetrainingOutcome:
    """What one scheduled check did."""

    check_date: date
    drift_detected: bool
    retrained: bool
    promoted: bool
    accuracy: Optional[float]
    detail: str
    staged_version: Optional[int] = None


class ModelRegistry:
    """Versioned storage of promoted and staged models.

    Each entry writes ``model-v<N>.json`` plus a row in
    ``registry.json`` recording when, why, the model's sha256 content
    digest, and its status: ``live`` (serving, or a past serving
    model), ``candidate`` (staged for rollout), or ``rolled_back``.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._index_path = self.root / "registry.json"

    def versions(self) -> List[dict]:
        """Promotion history, oldest first."""
        if not self._index_path.exists():
            return []
        return read_json(self._index_path)

    def _write_index(self, index: List[dict]) -> None:
        write_atomic(self._index_path, json.dumps(index, indent=2))

    @property
    def latest_version(self) -> int:
        """Highest stored version number (0 when empty)."""
        index = self.versions()
        return index[-1]["version"] if index else 0

    @property
    def live_version(self) -> int:
        """Version of the newest live entry (0 when none)."""
        for entry in reversed(self.versions()):
            if entry.get("status", STATUS_LIVE) == STATUS_LIVE:
                return entry["version"]
        return 0

    def _store(
        self,
        polygraph: BrowserPolygraph,
        check_date: date,
        reason: str,
        status: str,
    ) -> int:
        version = self.latest_version + 1
        model_path = self.root / f"model-v{version:03d}.json"
        digest = polygraph.save(model_path)
        index = self.versions()
        index.append(
            {
                "version": version,
                "path": model_path.name,
                "promoted_on": check_date.isoformat(),
                "accuracy": polygraph.accuracy,
                "reason": reason,
                "status": status,
                "sha256": digest,
            }
        )
        self._write_index(index)
        return version

    def promote(
        self, polygraph: BrowserPolygraph, check_date: date, reason: str
    ) -> int:
        """Store a model directly as the next live version."""
        return self._store(polygraph, check_date, reason, STATUS_LIVE)

    def stage_candidate(
        self, polygraph: BrowserPolygraph, check_date: date, reason: str
    ) -> int:
        """Store a model as a rollout candidate (not yet serving)."""
        return self._store(polygraph, check_date, reason, STATUS_CANDIDATE)

    def _set_status(self, version: int, status: str) -> None:
        index = self.versions()
        for entry in index:
            if entry["version"] == version:
                entry["status"] = status
                self._write_index(index)
                return
        raise LookupError(f"no model version {version}")

    def mark_live(self, version: int) -> None:
        """Mark a staged candidate as the serving model."""
        self._set_status(version, STATUS_LIVE)

    def mark_rolled_back(self, version: int) -> None:
        """Mark a version as rolled back (never load it by default)."""
        self._set_status(version, STATUS_ROLLED_BACK)

    def rollback(self) -> int:
        """Demote the newest live entry; return the prior live version."""
        index = self.versions()
        live = [
            e for e in index if e.get("status", STATUS_LIVE) == STATUS_LIVE
        ]
        if len(live) < 2:
            raise LookupError("no prior live version to roll back to")
        self._set_status(live[-1]["version"], STATUS_ROLLED_BACK)
        return live[-2]["version"]

    def load(self, version: Optional[int] = None) -> BrowserPolygraph:
        """Load a model: the newest *live* entry by default.

        The entry's recorded sha256 is checked against the model file's
        before parsing, so a swapped or stale file on disk cannot serve
        under another version's name (the file's own content digest is
        verified separately on load).
        """
        index = self.versions()
        if not index:
            raise LookupError(f"{self._index_path}: the registry is empty")
        if version is None:
            live = [
                e for e in index if e.get("status", STATUS_LIVE) == STATUS_LIVE
            ]
            if not live:
                raise LookupError(f"{self._index_path}: the registry has no live model")
            entry = live[-1]
        else:
            matches = [e for e in index if e["version"] == version]
            if not matches:
                raise LookupError(f"no model version {version}")
            entry = matches[0]
        path = self.root / entry["path"]
        recorded = entry.get("sha256")
        if recorded is not None:
            on_disk = stored_digest(path)
            if on_disk is not None and on_disk != recorded:
                raise UnreadableFileError(
                    f"{path}: registry digest mismatch for v{entry['version']}: "
                    f"index records {recorded[:12]}..., file carries "
                    f"{on_disk[:12]}... (file swapped or index stale)"
                )
        return BrowserPolygraph.load(path)


class RetrainingOrchestrator:
    """Drift-triggered retraining with verified promotion.

    Without ``rollout``, a verified candidate is promoted directly (the
    pre-rollout behaviour).  With one, the candidate is staged and the
    rollout manager owns the rest of its life; the orchestrator adopts
    the candidate's window only when the rollout completes.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        accuracy_floor: float = 0.985,
        max_window_sessions: Optional[int] = None,
        rollout=None,
        jobs: int = 1,
        pipeline_config=None,
    ) -> None:
        if not 0.0 < accuracy_floor < 1.0:
            raise ValueError("accuracy_floor must lie in (0, 1)")
        self.registry = registry
        self.accuracy_floor = accuracy_floor
        self.max_window_sessions = max_window_sessions
        self.rollout = rollout
        # Worker processes for every fit this orchestrator runs; results
        # are bit-identical at any setting (see repro.ml.parallel).
        self.jobs = jobs
        # Optional PipelineConfig every fit uses (bootstrap and retrain
        # candidates alike) — how a deployment trains its serving models
        # with e.g. ``unknown_ua_policy="infer"`` turned on.
        self.pipeline_config = pipeline_config
        self.window: Optional[Dataset] = None
        self.current: Optional[BrowserPolygraph] = None
        self.history: List[RetrainingOutcome] = []

    def _fresh_pipeline(self) -> BrowserPolygraph:
        if self.pipeline_config is not None:
            return BrowserPolygraph(self.pipeline_config)
        return BrowserPolygraph()

    # ------------------------------------------------------------------

    def bootstrap(self, training: Dataset, on: date) -> BrowserPolygraph:
        """Initial training and promotion (version 1)."""
        self.window = training
        polygraph = self._fresh_pipeline().fit(training, jobs=self.jobs)
        if polygraph.accuracy < self.accuracy_floor:
            raise RuntimeError(
                f"bootstrap accuracy {polygraph.accuracy:.4f} below the "
                f"{self.accuracy_floor:.4f} floor"
            )
        self.registry.promote(polygraph, on, "bootstrap")
        self.current = polygraph
        return polygraph

    def scheduled_check(
        self, live: Dataset, on: date, force: bool = False
    ) -> RetrainingOutcome:
        """One Section 6.6 check: evaluate drift, retrain if triggered.

        ``force`` retrains even when no release registers as drifted —
        the flag-rate monitor's escalation path.  A sagging flag rate
        with a clean drift report usually means the serving model's
        cluster table has fallen behind the release calendar (its
        unknown-UA blind spot is growing), which a window refresh fixes
        without any cluster having moved.
        """
        if self.current is None or self.window is None:
            raise RuntimeError("orchestrator not bootstrapped")

        # The check's own date stamps every record: drift evaluation
        # runs under the caller's clock (real or virtual), never an
        # implicit today.
        records = self.current.drift_report(live, check_date=on)
        drifted = [
            r.ua_key
            for r in records
            if r.retrain_needed(self.current.config.drift_accuracy_threshold)
        ]
        if not drifted and not force:
            outcome = RetrainingOutcome(
                check_date=on,
                drift_detected=False,
                retrained=False,
                promoted=False,
                accuracy=self.current.accuracy,
                detail="no drift; model unchanged",
            )
            self.history.append(outcome)
            return outcome

        if self.rollout is not None and self.rollout.in_flight:
            outcome = RetrainingOutcome(
                check_date=on,
                drift_detected=bool(drifted),
                retrained=False,
                promoted=False,
                accuracy=self.current.accuracy,
                detail="retrain needed but a rollout is in flight; deferred",
            )
            self.history.append(outcome)
            return outcome

        extended = self._extend_window(live)
        candidate = self._fresh_pipeline().fit(extended, jobs=self.jobs)
        verified, detail = self._verify_candidate(candidate, live, drifted)
        reason = (
            f"drift in {', '.join(sorted(drifted))}"
            if drifted
            else "forced refresh (flag-rate alarm)"
        )
        promoted = False
        staged_version: Optional[int] = None
        if verified and self.rollout is not None:
            staged_version = self.registry.stage_candidate(candidate, on, reason)
            self.rollout.begin(
                candidate,
                staged_version,
                on_complete=lambda: self._adopt(candidate, extended),
            )
            detail = (
                f"staged v{staged_version} for rollout "
                f"({detail.replace('promoted', 'verified')})"
            )
        elif verified:
            self.registry.promote(candidate, on, reason)
            self._adopt(candidate, extended)
            promoted = True
        outcome = RetrainingOutcome(
            check_date=on,
            drift_detected=bool(drifted),
            retrained=True,
            promoted=promoted,
            accuracy=candidate.accuracy,
            detail=detail,
            staged_version=staged_version,
        )
        self.history.append(outcome)
        return outcome

    # ------------------------------------------------------------------

    def _adopt(self, candidate: BrowserPolygraph, window: Dataset) -> None:
        """Make a candidate the orchestrator's current model + window."""
        self.current = candidate
        self.window = window

    def _extend_window(self, live: Dataset) -> Dataset:
        extended = Dataset.concatenate([self.window, live])
        if (
            self.max_window_sessions is not None
            and len(extended) > self.max_window_sessions
        ):
            # Slide the window: keep the newest sessions (a zero-copy
            # row view, so the trimmed prefix is never materialized).
            extended = extended.rows(
                len(extended) - self.max_window_sessions, len(extended)
            )
        return extended

    def _verify_candidate(
        self,
        candidate: BrowserPolygraph,
        live: Dataset,
        drifted: List[str],
    ) -> tuple:
        if candidate.accuracy < self.accuracy_floor:
            return False, (
                f"candidate accuracy {candidate.accuracy:.4f} below floor; "
                "keeping the previous model"
            )
        missing = [
            key
            for key in drifted
            if candidate.cluster_model.expected_cluster(key) is None
        ]
        if missing:
            return False, (
                f"candidate did not absorb {', '.join(missing)}; "
                "keeping the previous model"
            )
        still_drifting = candidate.drift_report(live)
        if candidate.retrain_needed(still_drifting):
            return False, "candidate still reports drift; keeping previous model"
        return True, f"promoted after absorbing {', '.join(sorted(drifted))}"
