"""Replicated model distribution: registry → every shard, quorum flip.

The model registry (PR 2) is the replication source of truth: every
version it stages carries a sha256 digest recorded at save time.  The
distributor pushes one version to every shard; each shard re-verifies
the artifact's digest before adopting it, so a torn copy or a tampered
file is refused at the shard boundary, not discovered in verdicts.

The serving version only *flips* — becomes the generation the cluster
advertises — once a configurable quorum of shards has converged on it.
A shard serves its generation whole: a lagging or failed shard keeps
answering the sessions it owns on the previous generation in its
entirety, and no verdict is ever assembled from two generations.  The
router's failover does not filter replicas by version, so a session sees
another generation only if its owner dies mid-flip — the next replica
then answers on *its* generation, whole, rather than refusing.  The
laggard is retried (:meth:`ModelDistributor.retry_lagging`) until it
converges or the supervisor replaces it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.cluster.supervisor import ShardError, ShardSupervisor

__all__ = ["DistributionReport", "ModelDistributor"]


@dataclass(frozen=True)
class DistributionReport:
    """Outcome of one distribution round."""

    version: int
    digest: Optional[str]
    installed: List[str] = field(default_factory=list)
    failed: Dict[str, str] = field(default_factory=dict)
    quorum: int = 0
    flipped: bool = False
    serving_version: int = 0

    @property
    def converged(self) -> bool:
        """Every shard adopted the version (not merely a quorum)."""
        return not self.failed

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "digest": self.digest,
            "installed": list(self.installed),
            "failed": dict(self.failed),
            "quorum": self.quorum,
            "flipped": self.flipped,
            "serving_version": self.serving_version,
        }


class ModelDistributor:
    """Push registry versions to shards; flip serving at quorum.

    Parameters
    ----------
    quorum:
        Shards that must verify-and-adopt a version before the cluster's
        serving version flips to it.  ``None`` means a majority
        (``n_shards // 2 + 1``).
    """

    def __init__(
        self,
        supervisor: ShardSupervisor,
        registry,
        quorum: Optional[int] = None,
    ) -> None:
        n_shards = len(supervisor.shards)
        if quorum is None:
            quorum = n_shards // 2 + 1
        if not 1 <= quorum <= n_shards:
            raise ValueError(
                f"quorum must be within [1, {n_shards}], got {quorum}"
            )
        self.supervisor = supervisor
        self.registry = registry
        self.quorum = quorum
        self.last_report: Optional[DistributionReport] = None

    # ------------------------------------------------------------------

    def _entry(self, version: int) -> dict:
        for entry in self.registry.versions():
            if entry["version"] == version:
                return entry
        raise LookupError(f"registry has no version {version}")

    def publish(self, version: Optional[int] = None) -> DistributionReport:
        """Distribute ``version`` (default: the registry's live one).

        Every shard gets an install attempt; the serving version flips
        if and only if at least ``quorum`` shards hold the new version
        afterwards.  Shards that fail stay on whatever complete
        generation they already serve.
        """
        if version is None:
            version = self.registry.live_version
        if version < 1:
            raise LookupError("the registry has no live model to distribute")
        entry = self._entry(version)
        path = Path(self.registry.root) / entry["path"]
        digest = entry.get("sha256")
        installed: List[str] = []
        failed: Dict[str, str] = {}
        for shard_id, shard in self.supervisor.shards.items():
            if shard.model_version == version:
                installed.append(shard_id)  # already converged
                continue
            try:
                shard.install(path, digest, version)
            except (ShardError, ValueError, OSError) as exc:
                failed[shard_id] = f"{type(exc).__name__}: {exc}"
            else:
                installed.append(shard_id)
        flipped = False
        if len(installed) >= self.quorum:
            if self.supervisor.serving_version != version:
                flipped = True
            self.supervisor.set_serving_version(version)
            # The replica source for future restarts follows the flip,
            # so a shard that crashes after the rollout reloads the
            # generation the cluster actually serves.
            self.supervisor.model_path = path
            self.supervisor.expected_digest = digest
        report = DistributionReport(
            version=version,
            digest=digest,
            installed=sorted(installed),
            failed=failed,
            quorum=self.quorum,
            flipped=flipped,
            serving_version=self.supervisor.serving_version,
        )
        self.last_report = report
        return report

    def retry_lagging(self) -> DistributionReport:
        """Re-push the serving version to shards still behind it."""
        return self.publish(self.supervisor.serving_version)

    def lagging_shards(self) -> List[str]:
        """Shards not yet on the serving version."""
        serving = self.supervisor.serving_version
        return sorted(
            shard_id
            for shard_id, version in self.supervisor.shard_versions().items()
            if version != serving
        )
