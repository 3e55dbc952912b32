"""End-to-end retraining throughput: serial vs. pooled k-search.

The paper's deployment retrains on a ~205k-session window after every
major browser release (Section 6.6).  This benchmark measures that
offline path — export from the serve log, preprocessing (scaling +
Isolation Forest outlier removal), PCA, the elbow k-sweep, and the
final k-means fit — in two configurations:

* ``(log, jobs=1)`` — memory-mapped export, serial fit;
* ``(log, jobs=N)`` — memory-mapped export plus the process-pool
  k-search.

Every cell must produce the **same model**: identical selected k,
bit-identical centroids, equal labels/inertia, and an equal
cluster-to-user-agent table — the determinism contract of
``repro.ml.parallel`` asserted here on the real pipeline, not just in
unit tests.  Results are written to ``BENCH_training.json`` so future
PRs have a trajectory.

Direct run (CI uses ``--smoke``)::

    PYTHONPATH=src python benchmarks/bench_training_throughput.py --sessions 60000
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.preprocessing import Preprocessor
from repro.ml import kmeans as kmeans_mod
from repro.ml.elbow import elbow_analysis, elbow_seed, select_k_elbow
from repro.ml.kmeans import KMeans
from repro.ml.metrics import majority_cluster_map
from repro.ml.pca import PCA
from repro.service.log import COLLECT, SegmentLog
from repro.traffic.generator import TrafficConfig, TrafficSimulator

SESSIONS = int(os.environ.get("REPRO_TRAIN_BENCH_SESSIONS", "60000"))
ELBOW_KS = tuple(range(2, 13))


@dataclass
class CellResult:
    """One (storage, jobs) configuration's timings and model."""

    storage: str
    jobs: int
    times: Dict[str, float]
    selected_k: int
    centers: np.ndarray
    labels: np.ndarray
    inertia: float
    table: Dict[str, int]

    @property
    def total(self) -> float:
        return sum(self.times.values())


@dataclass
class TrainingBenchReport:
    sessions: int
    jobs: int
    cells: List[CellResult] = field(default_factory=list)

    def cell(self, storage: str, jobs: int) -> CellResult:
        for cell in self.cells:
            if cell.storage == storage and cell.jobs == jobs:
                return cell
        raise KeyError((storage, jobs))

    def cell_dicts(self) -> List[dict]:
        return [
            {
                "cell": f"{cell.storage}/jobs={cell.jobs}",
                "storage": cell.storage,
                "jobs": cell.jobs,
                "times_s": {k: round(v, 6) for k, v in cell.times.items()},
                "total_s": round(cell.total, 6),
                "inertia": cell.inertia,
            }
            for cell in self.cells
        ]

    def render(self) -> str:
        lines = [
            "Training throughput (export -> preprocess -> elbow -> fit)",
            f"  sessions             {self.sessions}",
            f"  selected k           {self.cells[0].selected_k}",
        ]
        for cell in self.cells:
            stages = "  ".join(
                f"{name}={seconds:.3f}s" for name, seconds in cell.times.items()
            )
            lines.append(
                f"  [{cell.storage:>8} jobs={cell.jobs}]  "
                f"total={cell.total:.3f}s  ({stages})"
            )
        return "\n".join(lines)


def _build_log(root: Path, n_sessions: int, seed: int) -> Path:
    """Simulate a traffic window and log it as ``serve --log`` would:
    one ``append_many`` per day of ``/collect`` rows."""
    config = TrafficConfig(seed=seed).scaled(n_sessions)
    dataset = TrafficSimulator(config).generate()
    log = SegmentLog(root / "log")
    days = dataset.days.astype("datetime64[D]")
    now = time.time()
    for day in np.unique(days):
        log.append_many(
            (
                (str(dataset.session_ids[idx]), COLLECT, -1, now,
                 str(dataset.user_agents[idx]), str(dataset.ua_keys[idx]),
                 tuple(int(v) for v in dataset.features[idx]), False, None)
                for idx in np.flatnonzero(days == day)
            ),
            day.astype(object),
        )
    log.seal()
    return log.root


def run_retrain(log_root: Path, storage: str, jobs: int) -> CellResult:
    """One full retrain pass over a serve log, with per-stage timings."""
    config = PipelineConfig()
    times: Dict[str, float] = {}

    start = time.perf_counter()
    dataset = SegmentLog(log_root).export_dataset()
    matrix = dataset.matrix()
    times["export"] = time.perf_counter() - start

    start = time.perf_counter()
    scaled, inliers = Preprocessor(config).fit(matrix)
    train = scaled[inliers]
    train_keys = [
        k for k, keep in zip(dataset.ua_keys.tolist(), inliers) if keep
    ]
    pca = PCA(n_components=config.n_pca_components).fit(train)
    projected = pca.transform(train)
    times["preprocess"] = time.perf_counter() - start

    start = time.perf_counter()
    curve = elbow_analysis(
        projected,
        ELBOW_KS,
        n_init=3,
        random_state=config.random_state,
        jobs=jobs,
    )
    selected_k = select_k_elbow(curve)
    times["elbow"] = time.perf_counter() - start

    start = time.perf_counter()
    model = KMeans(
        n_clusters=selected_k,
        n_init=config.kmeans_n_init,
        random_state=elbow_seed(config.random_state, selected_k),
        jobs=jobs,
    ).fit(projected)
    table = majority_cluster_map(train_keys, model.labels_)
    times["fit"] = time.perf_counter() - start

    return CellResult(
        storage=storage,
        jobs=jobs,
        times=times,
        selected_k=selected_k,
        centers=model.cluster_centers_,
        labels=model.labels_,
        inertia=float(model.inertia_),
        table=dict(table),
    )


def _assert_identical(cells: List[CellResult]) -> None:
    """Every cell must have produced the same model, bit for bit."""
    reference = cells[0]
    for cell in cells[1:]:
        tag = f"({cell.storage}, jobs={cell.jobs})"
        assert cell.selected_k == reference.selected_k, (
            f"{tag} selected k={cell.selected_k}, "
            f"expected {reference.selected_k}"
        )
        assert np.array_equal(cell.centers, reference.centers), (
            f"{tag} centroids differ from the reference run"
        )
        assert np.array_equal(cell.labels, reference.labels), (
            f"{tag} labels differ from the reference run"
        )
        assert cell.inertia == reference.inertia, (
            f"{tag} inertia {cell.inertia} != {reference.inertia}"
        )
        assert cell.table == reference.table, (
            f"{tag} cluster->UA table differs from the reference run"
        )


def _assert_pool_parity() -> None:
    """Force real pool execution on a small matrix and compare exactly.

    The work-size gate normally keeps tiny fits inline; dropping it to
    zero makes the parallel run actually cross process boundaries, so
    this catches seed-plumbing or result-ordering regressions even on
    hosts where the benchmark matrices stay under the gate.
    """
    rng = np.random.default_rng(11)
    matrix = np.repeat(rng.normal(size=(60, 6)), 5, axis=0)
    saved = kmeans_mod._MIN_PARALLEL_WORK
    kmeans_mod._MIN_PARALLEL_WORK = 0
    try:
        serial = KMeans(n_clusters=5, n_init=4, random_state=29, jobs=1).fit(
            matrix
        )
        pooled = KMeans(n_clusters=5, n_init=4, random_state=29, jobs=4).fit(
            matrix
        )
    finally:
        kmeans_mod._MIN_PARALLEL_WORK = saved
    assert np.array_equal(serial.cluster_centers_, pooled.cluster_centers_)
    assert np.array_equal(serial.labels_, pooled.labels_)
    assert serial.inertia_ == pooled.inertia_


def run_training_benchmark(
    n_sessions: int = SESSIONS, jobs: int = 4, seed: int = 7
) -> TrainingBenchReport:
    root = Path(tempfile.mkdtemp(prefix="polygraph-train-bench-"))
    try:
        log_root = _build_log(root, n_sessions, seed)
        report = TrainingBenchReport(sessions=n_sessions, jobs=jobs)
        report.cells.append(run_retrain(log_root, "log", 1))
        report.cells.append(run_retrain(log_root, "log", jobs))
        _assert_identical(report.cells)
        _assert_pool_parity()
        return report
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _write_report(report: TrainingBenchReport, output: Path) -> None:
    from repro.analysis.benchio import write_bench_json

    write_bench_json(
        output,
        benchmark="training_throughput",
        config={
            "sessions": report.sessions,
            "jobs": report.jobs,
            "elbow_ks": list(ELBOW_KS),
        },
        cells=report.cell_dicts(),
        extra={"selected_k": report.cells[0].selected_k},
    )
    # Validate the artifact the way CI consumes it.
    parsed = json.loads(output.read_text())
    assert parsed["benchmark"] == "training_throughput"
    assert len(parsed["cells"]) == 2


def test_training_throughput():
    """Pytest entry: a small but real run with all parity assertions."""
    report = run_training_benchmark(
        n_sessions=int(os.environ.get("REPRO_TRAIN_BENCH_SESSIONS", "4000")),
        jobs=2,
    )
    assert report.cell("log", 1).selected_k >= 2


def _main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the offline retraining path"
    )
    parser.add_argument("--sessions", type=int, default=SESSIONS)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny run (at most 1,500 sessions) with every parity assertion",
    )
    parser.add_argument("--output", default="BENCH_training.json")
    args = parser.parse_args(argv)

    sessions = min(args.sessions, 1500) if args.smoke else args.sessions
    report = run_training_benchmark(
        n_sessions=sessions, jobs=args.jobs, seed=args.seed
    )
    print(report.render())
    _write_report(report, Path(args.output))
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
